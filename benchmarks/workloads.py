"""The three workloads: their inputs, the CLI commands of one op, and its checks.

An op is the list of ``genoseq`` commands a user would type for one job;
the benchmark runs it through ``genoseq.cli.main`` in-process. Inputs are
made once per run from the workload seed, and the same seed is passed to
every command, as the README walkthrough does. Sizes are dataclass fields
so that tests can run each workload at a tiny size.

Known defects these configurations size around on purpose (see
``README.md``): the paper-default MF config (F=400, alpha 0.001, init
[0, 1]) diverges at 604x1980, so ``impute-paper`` passes an explicit alpha
and init range; and the README's cell ordering on the deep task only
holds at 600 epochs, so ``cells-deep`` checks finiteness and determinism,
never the ordering.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

MISSING_PCT_FLOOR = 90.0


class CheckFailed(Exception):
    """An op's outputs violate a workload check."""


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _final_train_loss(curve_csv: Path) -> float:
    last = curve_csv.read_text(encoding="utf-8").strip().splitlines()[-1]
    return float(last.split(",")[1])


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_imputation(fit_report: Path, epochs: int) -> dict:
    report = _read_json(fit_report)
    _require(len(report["curve"]) == epochs,
             f"MF ran {len(report['curve'])} epochs, expected {epochs}")
    pct = report["accuracy"]["missing_pct"]
    _require(pct >= MISSING_PCT_FLOOR,
             f"imputed_missing_pct {pct:.2f} below {MISSING_PCT_FLOOR}")
    return {"imputed_missing_pct": pct}


def _write_config(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


@dataclass(frozen=True)
class ImputePaper:
    """``genoseq impute --truth`` on a paper-scale population-structured matrix."""

    name: str = "impute-paper"
    samples: int = 604
    snps: int = 1980
    groups: int = 20
    missing_frac: float = 0.1
    features: int = 400
    alpha: float = 4e-4
    init_range: tuple[float, float] = (0.0, 0.05)
    epochs: int = 60

    @property
    def mf_shape(self) -> tuple[int, int, int]:
        return self.samples, self.snps, self.features

    def prepare(self, cli_main, work: Path, seed: int) -> dict:
        data = work / "data"
        rc = cli_main(["synth", "--generator", "population", "--samples", str(self.samples),
                       "--snps", str(self.snps), "--rank", str(self.groups),
                       "--missing-frac", str(self.missing_frac), "--traits", "1",
                       "--seed", str(seed), "--out", str(data)])
        if rc != 0:
            raise RuntimeError(f"genoseq synth exited with {rc}")
        config = _write_config(work / "impute.json", {"mf": {
            "init_range": list(self.init_range), "mode": "full_batch"}})
        return {"data": data, "config": config, "seed": str(seed)}

    def commands(self, inputs: dict, out: Path) -> list[list[str]]:
        data = inputs["data"]
        return [["impute", "--geno", str(data / "geno_holed.csv"),
                 "--truth", str(data / "geno_truth.csv"), "--features", str(self.features),
                 "--alpha", repr(self.alpha), "--epochs", str(self.epochs),
                 "--config", inputs["config"], "--seed", inputs["seed"],
                 "--out", str(out / "impute")]]

    def check(self, out: Path) -> tuple[dict, dict]:
        """Returns (quality, work) for a finished op; raises CheckFailed."""
        quality = _check_imputation(out / "impute" / "fit_report.json", self.epochs)
        return quality, {"mf_epochs": self.epochs, "rnn_seq_steps": 0}


@dataclass(frozen=True)
class CellsDeep:
    """``genoseq benchmark --task deep`` comparing all three cells."""

    name: str = "cells-deep"
    length: int = 100
    sequences: int = 32
    lr: float = 0.01
    epochs: int = 100
    mf_shape = None  # no factorization in this workload

    def prepare(self, cli_main, work: Path, seed: int) -> dict:
        # the program derives the task batch from --seed itself
        return {"seed": str(seed)}

    def commands(self, inputs: dict, out: Path) -> list[list[str]]:
        return [["benchmark", "--task", "deep", "--length", str(self.length),
                 "--sequences", str(self.sequences), "--lr", repr(self.lr),
                 "--epochs", str(self.epochs), "--seed", inputs["seed"],
                 "--out", str(out / "bench")]]

    def check(self, out: Path) -> tuple[dict, dict]:
        doc = _read_json(out / "bench" / "benchmark.json")
        _require(not doc["diverged"], f"cells diverged: {doc['diverged']}")
        quality = {}
        steps = 0
        for cell, loss in sorted(doc["final_losses"].items()):
            _require(math.isfinite(loss), f"final_loss.{cell} is {loss}")
            _require(len(doc["curves"][cell]) == self.epochs, f"{cell} curve is short")
            quality[f"final_loss.{cell}"] = loss
            steps += self.sequences * self.length * self.epochs
        _require(len(quality) == 3, f"expected 3 cells, got {sorted(quality)}")
        return quality, {"mf_epochs": 0, "rnn_seq_steps": steps}


@dataclass(frozen=True)
class Walkthrough:
    """The README walkthrough: impute, then train and predict two traits."""

    name: str = "walkthrough"
    samples: int = 100
    snps: int = 200
    rank: int = 5
    missing_frac: float = 0.1
    features: int = 8
    alpha: float = 0.001
    beta: float = 0.02
    mf_epochs: int = 10
    hidden: int = 16
    lr: float = 0.05
    rnn_epochs: int = 100
    chunk_width: int = 20
    cells: tuple[str, ...] = ("relu_identity", "lstm")  # trait i trains cells[i]

    @property
    def mf_shape(self) -> tuple[int, int, int]:
        return self.samples, self.snps, self.features

    def prepare(self, cli_main, work: Path, seed: int) -> dict:
        data = work / "data"
        rc = cli_main(["synth", "--samples", str(self.samples), "--snps", str(self.snps),
                       "--rank", str(self.rank), "--missing-frac", str(self.missing_frac),
                       "--traits", str(len(self.cells)), "--seed", str(seed),
                       "--out", str(data)])
        if rc != 0:
            raise RuntimeError(f"genoseq synth exited with {rc}")
        config = _write_config(work / "walkthrough.json", {"mf": {
            "mode": "per_entry", "features": self.features, "alpha": self.alpha}})
        return {"data": data, "config": config, "seed": str(seed)}

    def commands(self, inputs: dict, out: Path) -> list[list[str]]:
        data, seed = inputs["data"], inputs["seed"]
        imputed = str(out / "impute" / "imputed.csv")
        cmds = [["impute", "--geno", str(data / "geno_holed.csv"),
                 "--truth", str(data / "geno_truth.csv"), "--beta", repr(self.beta),
                 "--epochs", str(self.mf_epochs), "--config", inputs["config"],
                 "--seed", seed, "--out", str(out / "impute")]]
        for trait, cell in enumerate(self.cells):
            trait_out = str(out / f"trait{trait}")
            cmds.append(["train", "--geno", imputed, "--pheno", str(data / "pheno.csv"),
                         "--trait", str(trait), "--cell", cell, "--hidden", str(self.hidden),
                         "--lr", repr(self.lr), "--epochs", str(self.rnn_epochs),
                         "--chunk-width", str(self.chunk_width), "--seed", seed,
                         "--out", trait_out])
            cmds.append(["predict", "--checkpoint", f"{trait_out}/checkpoint.json",
                         "--geno", imputed, "--pheno", str(data / "pheno.csv"),
                         "--trait", str(trait), "--out", trait_out])
        return cmds

    def check(self, out: Path) -> tuple[dict, dict]:
        quality = _check_imputation(out / "impute" / "fit_report.json", self.mf_epochs)
        steps = 0
        timesteps = math.ceil(self.snps / self.chunk_width)
        for trait, cell in enumerate(self.cells):
            trait_out = out / f"trait{trait}"
            loss = _final_train_loss(trait_out / "train_curve.csv")
            _require(math.isfinite(loss), f"final_loss.{cell} is {loss}")
            quality[f"final_loss.{cell}"] = loss
            mse = _read_json(trait_out / "predict_metrics.json")["mse"]
            _require(math.isfinite(mse), f"trait {trait} prediction mse is {mse}")
            n_train = _read_json(trait_out / "train_report.json")["metrics"]["train"]["n"]
            steps += n_train * timesteps * self.rnn_epochs
        return quality, {"mf_epochs": self.mf_epochs, "rnn_seq_steps": steps}


WORKLOADS = {w.name: w for w in (ImputePaper(), CellsDeep(), Walkthrough())}
