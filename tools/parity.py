"""``python tools/parity.py PARENT``: does a change keep a fixed command list's outputs?

PARENT is a git revision (extracted with ``git archive``) or a source tree. The commands run on
PARENT and on this working tree, each with its own ``src`` and ``benchmarks`` on PYTHONPATH and
in its own temporary directory. Every file left behind and each command's exit code, stdout and
stderr are compared by sha256: each difference prints a line and exits 1, else the counts print.

``python tools/parity.py --test04 PARENT`` runs ``tests/test_acceptance.py::_final_losses`` over
test_04's ten repetitions instead, in each tree's own ``src`` and ``tests`` and in two spawned
workers, as test_04 does. For each tree it prints the sha256 of the 30 final-loss ``repr``s
joined by newlines (repetition-major, cells in the order tanh, lstm, relu) and test_04's two win
counts; it exits 1 when the digests differ. It takes about a minute a tree on two cores.

``python tools/parity.py --threads`` runs the command list on this working tree alone, at
``OPENBLAS_NUM_THREADS=1`` and at 2, and prints each output whose bytes differ between the two
and a count. It only reports: it exits 0 whatever differs.
"""

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _cli(*argv: str) -> list[str]:
    return ["-m", "genoseq.cli", *argv]


# written before the commands; at clip.json's bound every cell clips every walkthrough step
INPUTS = {"per_entry.json": '{"mf": {"mode": "per_entry", "features": 8}}\n',
          "clip.json": '{"rnn": {"clip_norm": 0.01}}\n',
          # a token-format genotype file, partly lower case, with CRLF line ends
          "tokens.csv": "rs101,rs102,rs103,rs104\r\n" + "".join(
              ",".join(("AA", "ab", "BB", "Null", "aa", "AB")[(r + 2 * c) % 6] for c in range(4))
              + "\r\n" for r in range(12))}
# one op of a benchmark workload at seed 1, through benchmarks/workloads.py
_OP = ("import pathlib, sys, workloads; from genoseq.cli import main\n"
       "w = workloads.WORKLOADS[sys.argv[1]]; work = pathlib.Path(w.name)\n"
       "print([main(c) for c in w.commands(w.prepare(main, work, 1), work / 'out')])")
_PIPELINE = ("from genoseq import mf, pipeline as p\n"
             "cfg = p.PipelineConfig(mf.MfConfig(features=8, epochs=300), seed=42, traits=(0, 1))\n"
             "print(p.export_report(p.run_pipeline('data/geno_holed.csv', 'data/pheno.csv', cfg,"
             " 'data/geno_truth.csv'), 'pipeline'))")
_SEED, _SMALL = ("--seed", "42"), ("--samples", "60", "--snps", "90", "--seed", "42")
_PREDICT = ("--geno", "run/imputed.csv", "--trait", "0")
_TRAIN = (*_PREDICT, "--pheno", "data/pheno.csv", "--hidden", "16", "--lr", "0.05", "--epochs",
          "100", "--chunk-width", "20", *_SEED)  # the README walkthrough's
_PAPER = ("--geno", "synth/population/geno_truth.csv", "--trait", "0")
# test_04's final losses: one line per repr, repetition-major, cells in the order tanh, lstm, relu
_CELLS04 = ("simple_tanh", "lstm", "relu_identity")
_TEST04 = ("import concurrent.futures as cf, multiprocessing as mp, warnings, test_acceptance\n"
           "with cf.ProcessPoolExecutor(2, mp_context=mp.get_context('spawn'),"
           " initializer=warnings.simplefilter, initargs=('error',)) as pool:\n"
           "    for f in pool.map(test_acceptance._final_losses, range(10)):\n"
           f"        print(*(repr(f[c]) for c in {_CELLS04}), sep='\\n')\n")
COMMANDS = [
    _cli("synth", "--samples", "100", "--snps", "200", "--rank", "5", "--missing-frac", "0.1",
         *_SEED, "--out", "data"),
    _cli("impute", "--geno", "data/geno_holed.csv", "--truth", "data/geno_truth.csv", "--features",
         "8", "--alpha", "0.001", "--beta", "0.02", "--epochs", "1500", *_SEED, "--out", "run"),
    *(cmd for cell in ("relu_identity", "simple_tanh", "lstm") for cmd in (
        _cli("train", *_TRAIN, "--cell", cell, "--out", f"run/{cell}"),
        _cli("predict", "--checkpoint", f"run/{cell}/checkpoint.json", *_PREDICT,
             "--pheno", "data/pheno.csv", "--out", f"run/{cell}/pheno"),
        _cli("predict", "--checkpoint", f"run/{cell}/checkpoint.json", *_PREDICT,
             "--out", f"run/{cell}/plain"))),
    *(_cli("train", *_TRAIN, "--cell", cell, "--config", "clip.json", "--out", f"clip/{cell}")
      for cell in ("simple_tanh", "lstm")),
    # 200 SNPs in chunks of 13 make T=16 steps: one whole chunk of the lstm's derivative factors
    _cli("train", *_TRAIN, "--cell", "lstm", "--chunk-width", "13", "--out", "t16/lstm"),
    _cli("impute", "--geno", "data/geno_holed.csv", "--epochs", "20", "--config", "per_entry.json",
         *_SEED, "--out", "per_entry"),
    _cli("impute", "--geno", "tokens.csv", "--features", "2", "--epochs", "50", *_SEED,
         "--out", "tokens"),
    _cli("synth", *_SMALL, "--rank", "1", "--out", "synth/rank1"),
    _cli("synth", *_SMALL, "--missing-mode", "snp_block", "--trait-missing", "4",
         "--out", "synth/lowrank_block"),
    _cli("synth", "--generator", "population", "--samples", "604", "--snps", "1980",
         "--rank", "20", *_SEED, "--out", "synth/population"),
    _cli("synth", "--generator", "population", *_SMALL, "--missing-mode", "snp_block",
         "--out", "synth/population_block"),
    # the paper's second-stage shape: 483 training rows of T=99 steps of width 20
    *(cmd for cell in ("lstm", "relu_identity") for cmd in (
        _cli("train", *_PAPER, "--pheno", "synth/population/pheno.csv", "--cell", cell,
             "--epochs", "3", "--chunk-width", "20", *_SEED, "--out", f"paper/{cell}"),
        _cli("predict", "--checkpoint", f"paper/{cell}/checkpoint.json", *_PAPER,
             "--out", f"paper/{cell}/plain"))),
    ["-c", _PIPELINE, "run_pipeline"],
    _cli("benchmark", "--task", "deep", "--length", "100", "--sequences", "32", "--lr", "0.01",
         "--epochs", "600", "--seed", "7", "--out", "bench"),
    _cli("benchmark", "--task", "lag", "--length", "20", "--sequences", "16", "--epochs", "100",
         "--seed", "7", "--out", "bench_preset_lr"),
    _cli("benchmark", "--task", "adding", "--length", "20", "--sequences", "8", "--epochs", "20",
         "--seed", "7", "--out", "bench_adding"),
    _cli("gradcheck", "--trials", "30", "--seed", "1"),
    *(["-c", _OP, name] for name in ("impute-paper", "cells-deep", "walkthrough")),
]


def run(tree: Path, work: Path, **environ: str) -> dict[str, str]:
    """The sha256 of each command stream and output file of the command list run on ``tree``,
    with ``environ`` added to the environment."""
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(tree / d) for d in ("src", "benchmarks")),
               **environ)
    for name, text in INPUTS.items():
        (work / name).write_text(text, encoding="utf-8")
    blobs = {}
    for i, argv in enumerate(COMMANDS):
        done = subprocess.run([sys.executable, *argv], cwd=work, env=env, capture_output=True)
        label = f"command {i} ({argv[2]})"  # the cli command, or the script's argument
        blobs[f"{label} exit code"] = str(done.returncode).encode()
        blobs[f"{label} stdout"] = done.stdout.replace(os.fsencode(tree), b"<tree>")
        blobs[f"{label} stderr"] = done.stderr.replace(os.fsencode(tree), b"<tree>")
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        blobs[f"file {path.relative_to(work).as_posix()}"] = path.read_bytes()
    return {key: hashlib.sha256(blob).hexdigest() for key, blob in blobs.items()}


def test04(tree: Path) -> tuple[str, int, int]:
    """The digest of test_04's final losses on ``tree``, and its relu<tanh and lstm<tanh wins."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(tree / d) for d in ("src", "tests")))
    text = subprocess.run([sys.executable, "-c", _TEST04], cwd=tree, env=env, check=True,
                          capture_output=True, text=True).stdout.rstrip("\n")
    tanh, lstm, relu = (list(map(float, text.split("\n")[i::3])) for i in range(3))
    return (hashlib.sha256(text.encode()).hexdigest(), sum(r < t for r, t in zip(relu, tanh)),
            sum(m < t for m, t in zip(lstm, tanh)))


def _source_tree(parent: str, scratch: Path) -> Path:
    if Path(parent).is_dir():
        return Path(parent).resolve()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent], capture_output=True)
    if archive.returncode:
        print(f"parity: {parent!r} is neither a directory nor a git revision", file=sys.stderr)
        sys.exit(2)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(scratch, filter="data")
    return scratch


def _differ(before: dict[str, str], after: dict[str, str]) -> list[str]:
    differ = [k for k in sorted(before.keys() | after.keys()) if before.get(k) != after.get(k)]
    for key in differ:
        print(f"differs: {key}")
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", help="git revision or source tree to compare against")
    parser.add_argument("--test04", action="store_true",
                        help="compare test_04's final losses instead of the command list")
    parser.add_argument("--threads", action="store_true",
                        help="compare this tree at OPENBLAS_NUM_THREADS=1 and 2; report only")
    args = parser.parse_args(argv)
    if args.threads:
        with tempfile.TemporaryDirectory() as tmp:
            one, two = (run(ROOT, Path(tmp, n), OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
        print(f"threads: {len(_differ(one, two))} of {len(two)} outputs differ at 1 and 2 threads")
        return 0
    if args.parent is None:
        parser.error("give a PARENT to compare against, or --threads")
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": _source_tree(args.parent, Path(tmp, "tree")), "change": ROOT}
        if args.test04:
            digests = set()
            for side, tree in trees.items():
                digest, relu, lstm = test04(tree)
                digests.add(digest)
                print(f"{side}: test_04 sha256 {digest} relu<tanh {relu}/10 lstm<tanh {lstm}/10")
            return 1 if len(digests) > 1 else 0
        before, after = (run(tree, Path(tmp, side)) for side, tree in trees.items())
    if _differ(before, after):
        return 1
    n_files = sum(key.startswith("file ") for key in after)
    print(f"parity: {n_files} files and {len(COMMANDS)} commands matched")
    return 0


if __name__ == "__main__":
    sys.exit(main())
