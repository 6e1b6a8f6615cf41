"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workload cells-deep --seeds 1 2 3 4 5

Runs ``run.py`` once per seed, one run at a time, with ``run_seconds``
from ``BENCHMARK.json``, and prints for every end-to-end metric the
median, the quartiles and the interquartile distance as a share of the
median, next to the metric's bound. A spread at or above a third of the
bound is flagged: the benchmark is meant to stay well inside its bounds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench_stats import quartiles, relative_spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    failures = 0
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "run.py"),
                               "--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        ok = proc.returncode == 0 and result.get("correct") is True
        failures += not ok
        print(f"seed {seed}: rc={proc.returncode} attempted={result.get('attempted')} "
              f"failed={result.get('failed')} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result.get("metrics", {}).items()),
              flush=True)
        for name, metric in result.get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, mid, q3 = quartiles(vals)
        spread = relative_spread(vals)
        bound = bounds.get(name)
        flag = " WIDE" if bound is not None and spread >= bound / 3 else ""
        print(f"{name:42s} {mid:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bound if bound is not None else '-':>6}{flag}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
