"""Benchmark entry point: one workload, one process, every metric by name.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 8 --trace 0

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``wall_s``,
``peak_rss_mb``); ``--trace 1`` runs the same workload untraced and then
traced, and reports the per-layer metrics of :mod:`perfbench.report`.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
provenance and the details behind the metrics (pass times, set-up
samples, host-speed probe, failures by kind, query latencies).

Phases of a run:

1. build: a child process imports the library once, which compiles the C
   kernels and the bytecode caches, so no timed phase pays for them;
2. set-up, timed from before ``import repro`` until the workload is ready;
3. one untimed warm-up pass, then timed passes for ``--seconds`` (at
   least ``MIN_PASSES``), in three stretches separated by two more
   set-ups in fresh child processes; ``wall_s`` is the median pass and
   ``setup_s`` the median of the three set-ups;
4. output check, outside the timed phase: every pass's counter digest
   must agree and sampled points must equal the reference engine.

Everything the run writes (kernel build cache aside, which the library
keeps under its own source tree) goes to ``.bench_build/perfbench`` in the
checkout: temporary campaign stores and, for traced runs, the span file.
A checkout without ``src/repro`` exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import report  # noqa: E402
from perfbench.checks import CheckFailed, digest, expect_same_digests  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Ops  # noqa: E402

#: Timed passes per phase, however fast they are.
MIN_PASSES = 3
#: Set-up samples per untraced run (this process plus fresh children).
SETUP_SAMPLES = 3
#: Compiled kernel backends; a run on anything else counts as failed.
COMPILED_BACKENDS = ("cext", "numba")
#: Iterations of the host-speed probe (about 0.1 s of pure Python).
HOST_PROBE_LOOPS = 1_000_000


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def _git_commit() -> str:
    """The checkout's commit read from ``.git``, or ``"unknown"``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _host_probe() -> float:
    """Seconds of a fixed pure-Python loop: how fast the host runs right now.

    Reported in the details beside the metrics, never folded into them, so
    that a shift between sets of runs can be told apart from a change in
    the program.
    """
    started = time.perf_counter()
    total = 0
    for i in range(HOST_PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE), *filter(None, [env.get("PYTHONPATH")])]
    )
    env["TMPDIR"] = str(WORKDIR / "tmp")
    return env


def _build() -> None:
    """Import the library once in a child: kernels and bytecode get built."""
    subprocess.run(
        [sys.executable, "-c", "from repro.kernels import dispatch; dispatch.active_backend()"],
        cwd=ROOT,
        env=_child_env(),
        check=True,
        timeout=600,
    )


def _setup_sample(name: str, seed: int) -> float:
    """Set-up seconds of ``name`` measured in a fresh child process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-sample"],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _measure(workload, ops: Ops, seconds: float, min_passes: int, digests: list[str],
             tracer: Tracer | None = None, label: str = "pass") -> tuple[list[float], list[str]]:
    """Timed passes until ``seconds`` elapsed and ``min_passes`` ran.

    With a ``tracer`` each pass's spans carry the run id ``<label>-<n>`` and
    the untimed collection after it is tagged ``untimed``.
    """
    walls: list[float] = []
    run_ids: list[str] = []
    started = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - started < seconds:
        run_id = f"{label}-{len(walls)}"
        if tracer is not None:
            tracer.run_id = run_id
        walls.append(workload.run_pass(ops) / 1e9)
        if tracer is not None:
            tracer.run_id = "untimed"
        digests.append(digest(workload.collect(ops)))
        run_ids.append(run_id)
    return walls, run_ids


def _integrity(workload, tracer: Tracer, run_ids: set[str]) -> None:
    """Every layer assigned to the workload recorded at least one call."""
    spans = tracer.layers(run_ids)
    silent = [
        layer
        for layer in workload.LAYERS
        if layer not in spans and not tracer.counted(layer, run_ids)
    ]
    if silent:
        raise CheckFailed(f"traced layers recorded no call on {workload.name}: {silent}")


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, *,
                  tiny: bool = False, setup_samples: int = SETUP_SAMPLES,
                  workdir: Path = WORKDIR) -> tuple[dict, dict]:
    """Run one workload; returns the result object and its details.

    A failed output check is reported as ``correct: false`` with the
    message in the details; the caller turns it into a non-zero exit.
    """
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    ops = Ops()
    tracer = Tracer() if trace else None
    details: dict = {"workload": name, "seed": seed}

    started = time.perf_counter()
    import repro  # noqa: F401  (timed: the library's import is set-up cost)

    workload = WORKLOADS[name](seed, tiny=tiny, workdir=str(workdir / "tmp"))
    if tracer is not None:
        tracer.install()
    try:
        workload.setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_seconds = [time.perf_counter() - started]

    from repro.kernels import dispatch
    import numpy

    details["provenance"] = {
        "cpu_count": os.cpu_count(),
        "backend": dispatch.active_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(),
        "seed": seed,
    }
    correct = True
    digests: list[str] = []
    try:
        if details["provenance"]["backend"] not in COMPILED_BACKENDS:
            ops.fail("backend_not_compiled")
            raise CheckFailed(f"kernel backend {details['provenance']['backend']!r} is not compiled")
        phases = details["phase_seconds"] = {"setup": setup_seconds[0]}
        mark = time.perf_counter()
        workload.run_pass(ops)  # warm-up, untimed
        digests.append(digest(workload.collect(ops)))
        workload.reset_samples()
        phase = seconds / 2 if trace else seconds
        min_passes = 1 if tiny else MIN_PASSES
        phases["warm-up"], mark = time.perf_counter() - mark, time.perf_counter()
        # Untraced runs interleave the timed passes with the set-up samples
        # taken in child processes, so wall_s spans the whole run instead
        # of one stretch of the host's drifting speed.
        segments = 1 if trace else setup_samples
        walls = []
        probes = []
        for segment in range(segments):
            if segment:
                setup_seconds.append(_setup_sample(name, seed))
            probes.append(_host_probe())
            walls += _measure(workload, ops, phase / segments, 1, digests)[0]
        probes.append(_host_probe())
        details["host_probe_s"] = statistics.median(probes)
        while len(walls) < min_passes or not workload.enough_samples():
            walls += _measure(workload, ops, 0.0, 1, digests)[0]
        peak_rss = _peak_rss_mb()
        phases["measure"], mark = time.perf_counter() - mark, time.perf_counter()
        latencies = list(workload.latencies)
        if tracer is not None:
            untraced_digests = list(digests)
            workload.reset_samples()
            tracer.install()
            try:
                traced_walls, traced_ids = _measure(
                    workload, ops, phase, min_passes, digests, tracer, label="traced"
                )
            finally:
                tracer.uninstall()
            _integrity(workload, tracer, {"setup", *traced_ids})
            if set(digests) != set(untraced_digests):
                raise CheckFailed("traced counters differ from untraced counters")
        expect_same_digests(digests)
        workload.check(random.Random(seed))
        phases["check"] = time.perf_counter() - mark
    except CheckFailed as exc:
        correct = False
        details["check_failed"] = str(exc)
        ops.fail("check")
    except Exception as exc:  # a failed pass: report it as a failed run
        correct = False
        details["error"] = traceback.format_exc()
        ops.fail(f"exception:{type(exc).__name__}")
    finally:
        workload.close()
    details["digest"] = digests[0] if digests else None
    details["failures"] = dict(ops.failures)
    failed_frac = ops.failed / max(ops.attempted, 1)
    details["failed_frac"] = failed_frac

    if not correct:
        return {"correct": False, "attempted": max(ops.attempted, 1), "failed": ops.failed,
                "metrics": {}}, details

    details["wall_s_samples"] = walls
    if latencies:
        details["query_p50_ms"] = report.percentile(latencies, 0.50) * 1e3
        details["query_p99_ms"] = report.percentile(latencies, 0.99) * 1e3
        details["query_samples"] = len(latencies)
    if tracer is not None:
        values = report.per_layer(
            tracer, traced_ids, traced_walls, walls, latencies,
            getattr(workload, "read_seconds", 0.0), getattr(workload, "reads", 0),
            failed_frac,
        )
        metrics = report.as_metrics(values, report.PER_LAYER)
        spans_path = workdir / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(str(spans_path), {"workload": name, **details["provenance"]})
        details["spans"] = str(spans_path)
    else:
        details["setup_s_samples"] = setup_seconds
        values = {
            "setup_s": statistics.median(setup_seconds),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss,
        }
        metrics = report.as_metrics(values, report.END_TO_END)
    return {"correct": True, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": metrics}, details


def _setup_only(name: str, seed: int) -> None:
    started = time.perf_counter()
    import repro  # noqa: F401

    workload = WORKLOADS[name](seed, workdir=str(WORKDIR / "tmp"))
    workload.setup()
    elapsed = time.perf_counter() - started
    workload.close()
    print(json.dumps({"setup_s": elapsed}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true",
                        help="measure one set-up and exit (used for the set-up samples)")
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SOURCE}", file=sys.stderr)
        return 2
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    (WORKDIR / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(WORKDIR / "tmp")
    if args.setup_sample:
        _setup_only(args.workload, args.seed)
        return 0

    _build()
    result, details = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
