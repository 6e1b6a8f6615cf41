"""Each workload end to end at a tiny size, through the benchmark's own entry point."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import CellsDeep, CheckFailed, ImputePaper, Walkthrough

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = {
    "impute-paper": ImputePaper(samples=30, snps=40, groups=3, features=4, alpha=0.01,
                                epochs=100),
    "cells-deep": CellsDeep(length=10, sequences=4, epochs=3),
    "walkthrough": Walkthrough(samples=40, snps=60, rank=2, features=2, alpha=0.01,
                               mf_epochs=30, rnn_epochs=5, chunk_width=10),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, workload in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, workload)
    monkeypatch.setattr(run, "RUNS", tmp_path)
    return tmp_path


def _run(capsys, workload, trace):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return rc, json.loads(last)


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_run_prints_every_end_to_end_metric(tiny, capsys, workload):
    rc, result = _run(capsys, workload, 0)
    assert rc == 0
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_prints_every_layer_metric(tiny, capsys, workload):
    rc, result = _run(capsys, workload, 1)
    assert rc == 0 and result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.self_s"] > 0
    if workload == "cells-deep":
        assert metrics["rnn.forward_per_epoch.lstm"] == 2
        assert metrics["linalg.sigmoid.per_lstm_step"] == 3
        assert metrics["mf.mf_epoch.ms"] == 0
    else:
        assert metrics["impute_s"] > 0 and metrics["mf_epochs_per_s"] > 0
    if workload == "impute-paper":
        assert metrics["mf.residuals_per_epoch"] == 2
        assert metrics["rnn_seq_steps_per_s"] == 0
    assert list(tiny.glob("*.spans.jsonl"))


def test_failed_check_counts_and_does_not_stop_the_run(tiny, capsys, monkeypatch):
    calls = []

    def failing_check(self, out):
        calls.append(out)
        raise CheckFailed("forced failure")

    monkeypatch.setattr(CellsDeep, "check", failing_check)
    rc, result = _run(capsys, "cells-deep", 0)
    assert rc == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == len(calls) >= run.MIN_OPS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "cells-deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
