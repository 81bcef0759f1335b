"""Steadiness check: two sets of runs of the same code, judged by the bounds.

Each set runs every workload once per seed, each run its own process with
``BENCHMARK.json``'s command, untraced. For every end-to-end metric of
every workload it prints the set's median and spread (the distance
between the first and third quartile, ``statistics.quantiles(values,
n=4)``, as a share of the median), then how far the second set's median
moved from the first's. A metric passes when each set's spread and the
move between the sets both stay within its bound; the exit status is 1
if any metric fails::

    python3 perfbench/steady.py --seeds 1 2 3 4 5 6 7 8 9 10 --second-seeds 11 12 13 14 15 16 17 18 19 20

The median host-speed probe of each set (see ``run.py``) is printed
beside the metrics, to tell a shift of the host from one of the program.
The per-run results and details go to ``--output`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result}")
    return result, details


def run_set(workloads: list[str], seeds: list[int], seconds: int) -> dict:
    runs: dict = {}
    for workload in workloads:
        runs[workload] = []
        for seed in seeds:
            result, details = run_once(workload, seed, seconds)
            runs[workload].append({"result": result, "details": details})
            values = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
            print(workload, seed, values, f"probe={details['host_probe_s']:.4f}",
                  file=sys.stderr, flush=True)
    return runs


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--second-seeds", nargs="+", type=int, default=list(range(11, 21)))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--output", type=Path)
    args = parser.parse_args(argv)

    sets = [run_set(args.workloads, seeds, args.seconds)
            for seeds in (args.seeds, args.second_seeds)]
    steady = True
    for workload in args.workloads:
        probes = [statistics.median(run["details"]["host_probe_s"] for run in s[workload])
                  for s in sets]
        print(f"{workload}: host probe {probes[0]:.4f} s -> {probes[1]:.4f} s "
              f"({probes[1] / probes[0] - 1:+.1%})")
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[run["result"]["metrics"][name]["value"] for run in s[workload]]
                      for s in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            move = medians[1] / medians[0] - 1
            worse = move if metric["better"] == "lower" else -move
            ok = max(spreads) <= bound and worse <= bound
            steady &= ok
            print(f"  {name}: medians {medians[0]:.4f} -> {medians[1]:.4f} ({move:+.1%}), "
                  f"spreads {spreads[0]:.3f}/{spreads[1]:.3f}, bound {bound} "
                  f"{'ok' if ok else 'FAILS'}")
    if args.output:
        args.output.write_text(json.dumps(sets, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
