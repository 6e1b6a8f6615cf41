"""Run one genoseq benchmark workload in a closed loop and print its metrics.

    python3 benchmarks/run.py --workload impute-paper --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. One client runs one op at a time, back to back, through
``genoseq.cli.main``. Ops run until ``--seconds`` have passed and at
least three have completed; the inputs are made before the clock starts.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced ops and prints the per-layer
metrics, including the tracing overhead between the two kinds. Human-
readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. A full record (provenance, every op, every metric) goes to
``.benchmark_runs/`` and, for traced runs, the spans next to it.

Exit codes: 0 when every op passed its checks, 1 when any failed (the
result line is still printed), 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

from bench_stats import median
from tracing import Tracer, patched
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".benchmark_runs"
MIN_OPS = 3
SETUP_REPEATS = 9
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class OpRecord:
    index: int
    traced: bool
    seconds: float = 0.0
    commands: list = field(default_factory=list)  # [command, seconds]
    error: str | None = None
    quality: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)


def measure_setup() -> float:
    """Median seconds for a fresh interpreter to ``import genoseq.cli``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-c", "import genoseq.cli"]
    subprocess.run(cmd, env=env, check=True)  # byte-compiles on first use
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - start)
    return median(times)


def digest_tree(path: Path) -> dict[str, str]:
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file()}


def run_op(workload, inputs: dict, out: Path, record: OpRecord, cli_main, tracer) -> None:
    """Run one op's commands in order, then check its outputs."""
    for argv in workload.commands(inputs, out):
        call = tracer.span(f"cli.{argv[0]}", cli_main) if tracer else cli_main
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = call(argv)
        record.commands.append([argv[0], time.perf_counter() - start])
        if rc != 0:
            raise CheckFailed(f"genoseq {argv[0]} exited with {rc}")
    record.seconds = sum(s for _, s in record.commands)
    record.quality, record.work = workload.check(out)


def run_loop(workload, inputs: dict, work: Path, seconds: float, trace: bool,
             cli_main, tracer: Tracer, instruments) -> list[OpRecord]:
    """Run ops until ``seconds`` pass and enough have run.

    With tracing, ops alternate untraced and traced, so both kinds see the
    same drift in machine load. Every op's exported files must equal the
    first op's byte for byte.
    """
    records: list[OpRecord] = []
    reference = None
    started = time.perf_counter()
    while True:
        i = len(records)
        if time.perf_counter() - started >= seconds:
            kinds = [r.traced for r in records]
            if trace and min(kinds.count(True), kinds.count(False)) >= 2:
                break
            if not trace and len(records) >= MIN_OPS:
                break
        record = OpRecord(index=i, traced=trace and i % 2 == 1)
        out = work / "ops" / f"op{i}"
        try:
            if record.traced:
                tracer.op = i
                with patched(instruments):
                    run_op(workload, inputs, out, record, cli_main, tracer)
            else:
                run_op(workload, inputs, out, record, cli_main, None)
            digests = digest_tree(out)
            if reference is None:
                reference = digests
            elif digests != reference:
                changed = sorted(k for k in reference.keys() | digests.keys()
                                 if reference.get(k) != digests.get(k))
                raise CheckFailed(f"exports differ from the first op's: {changed}")
        except CheckFailed as e:
            record.error = str(e)
        except Exception as e:  # a crash fails this op; the remaining ops still run
            traceback.print_exc()
            record.error = f"{type(e).__name__}: {e}"
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if record.error:
            print(f"op {i} FAILED: {record.error}", file=sys.stderr)
        records.append(record)
    return records


def _stage_seconds(record: OpRecord, commands) -> float:
    return sum(s for name, s in record.commands if name in commands)


def end_to_end_metrics(records, setup_s: float) -> dict[str, float]:
    """``wall_s`` is seconds per completed op, the inverse of closed-loop throughput.

    It is a mean, not a median: op times here are bimodal, because the
    host switches between a fast and a slow state every few ops, and a
    median of a few ops jumps from one state to the other.
    """
    timed = [r for r in records if not r.error]
    return {"setup_s": setup_s,
            "wall_s": sum(r.seconds for r in timed) / len(timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def stage_metrics(records) -> dict[str, float]:
    """Stage times from untraced ops and the tracing overhead from both kinds."""
    plain = [r for r in records if not r.error and not r.traced]
    traced = [r for r in records if not r.error and r.traced]
    impute_s = median(_stage_seconds(r, {"impute"}) for r in plain)
    train_s = median(_stage_seconds(r, {"train", "benchmark"}) for r in plain)
    work = plain[0].work
    return {
        "impute_s": impute_s, "train_s": train_s,
        "mf_epochs_per_s": work["mf_epochs"] / impute_s if impute_s else 0.0,
        "rnn_seq_steps_per_s": work["rnn_seq_steps"] / train_s if train_s else 0.0,
        "trace.overhead_pct": 100.0 * (median(r.seconds for r in traced)
                                       / median(r.seconds for r in plain) - 1.0),
    }


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_revision() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return None
    return top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "genoseq_threads": 1,
            "git_revision": _git_revision(), "source_sha256": _source_sha256(),
            "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "genoseq" / "cli.py").is_file():
        print(f"benchmark: no genoseq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from genoseq import cli

    from instrument import LAYER_METRICS, PAPER_MF_SHAPE, gemm_gflops, instrumentation, layer_metrics

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = RUNS / stem
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = None if trace else measure_setup()
        with contextlib.redirect_stdout(io.StringIO()):
            inputs = workload.prepare(cli.main, work, args.seed)
        tracer = Tracer()
        records = run_loop(workload, inputs, work, args.seconds, trace, cli.main, tracer,
                           instrumentation(tracer) if trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in records if r.error)
    ok = [r for r in records if not r.error]
    metrics, units = {}, {}
    if trace and {r.traced for r in ok} == {False, True}:
        gemm = gemm_gflops(*(workload.mf_shape or PAPER_MF_SHAPE))
        metrics = {**stage_metrics(records), **layer_metrics(tracer, gemm)}
        units = dict(LAYER_METRICS)
        metrics = {name: metrics[name] for name in units}
        tracer.dump(RUNS / f"{stem}.spans.jsonl")
    elif not trace and ok:
        metrics, units = end_to_end_metrics(records, setup_s), dict(END_TO_END)

    prov = provenance(args.seed)
    quality = next((r.quality for r in records if not r.error), {})
    (RUNS / f"{stem}.json").write_text(json.dumps(
        {"workload": asdict(workload), "seconds": args.seconds, "trace": args.trace,
         "provenance": prov, "quality": quality, "metrics": metrics,
         "ops": [asdict(r) for r in records]}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")

    print(f"workload {workload.name}, seed {args.seed}: {len(records)} ops, {failed} failed")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("quality " + json.dumps(quality, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
