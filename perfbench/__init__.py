"""The repository's benchmark: workloads, tracing and the runner (see run.py)."""
