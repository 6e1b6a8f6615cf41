"""End-to-end orchestration: parse, impute, chunk, train per trait, evaluate.

The stages run in a fixed order and every stage draws its seed from the
master seed by name (see :func:`genoseq.linalg.derive_seed`), so a run is
a pure function of (input files, config) and two runs with the same
config export byte-identical reports.

This module also owns the config schema: every config-file key, with its
section, default and type, comes from the dataclass fields (see resolve_config).
"""

from __future__ import annotations

import hashlib
import logging
import math
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Literal, NamedTuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import mf, rnn
from .data import (GenotypeMatrix, PhenotypeTable, SequenceBatch, SplitIndices,
                   build_sequences, check_traits, parse_genotype_csv, parse_phenotype_csv,
                   split_dataset, write_json)
from .errors import ConfigError, DataError, DivergenceError
from .linalg import derive_seed
from .rnn import RnnSettings

log = logging.getLogger("genoseq.pipeline")

REPORT_VERSION = "genoseq-report-v1"
GENOTYPE_MODES = ("imputed", "observed")
FILE_KEYS = ("out", "geno", "pheno", "truth")  # config-file paths, not run settings
_DATA = {"section": "data"}  # PipelineConfig fields kept in the config file's "data" section


@dataclass(frozen=True)
class PipelineConfig:
    mf: mf.MfConfig = field(default_factory=mf.MfConfig)
    rnn: RnnSettings = field(default_factory=RnnSettings)
    chunk_width: int = field(default=20, metadata=_DATA)
    normalization: str = field(default="scaled", metadata=_DATA)
    ratios: tuple[float, float, float] = field(default=(0.8, 0.1, 0.1), metadata=_DATA)
    seed: int = 0
    traits: tuple[int, ...] = (0,)
    success_tolerance: float = 0.1
    genotype_mode: str = "imputed"

    def __post_init__(self):
        if self.chunk_width < 1:
            raise ConfigError(f"chunk_width must be >= 1, got {self.chunk_width}")
        if not self.traits:
            raise ConfigError("at least one trait index is required")
        if self.success_tolerance < 0:
            raise ConfigError(f"success_tolerance must be >= 0, got {self.success_tolerance}")
        if self.genotype_mode not in GENOTYPE_MODES:
            raise ConfigError(f"genotype_mode must be one of {GENOTYPE_MODES}")

    def to_dict(self) -> dict:
        """The config as JSON data, its tuples as lists."""
        return asdict(self, dict_factory=lambda items: {
            k: list(v) if isinstance(v, tuple) else v for k, v in items})

    def seeded_mf(self) -> mf.MfConfig:
        """The factorization config with its seed derived from the master seed."""
        return replace(self.mf, seed=derive_seed(self.seed, "mf"))


def _config_keys() -> dict[str, tuple]:
    """{"section.name" or top-level name: (type hint, type as written)} for every config key.

    The keys are the fields of PipelineConfig (in the section their metadata
    names), of MfConfig ("mf") and RnnSettings ("rnn"), and the FILE_KEYS.
    MfConfig.seed is no key: it always derives from the master seed.
    """
    keys = {k: (str, "str") for k in FILE_KEYS}
    for prefix, cls in (("", PipelineConfig), ("mf.", mf.MfConfig), ("rnn.", RnnSettings)):
        hints = get_type_hints(cls)
        for f in fields(cls):
            section = f.metadata.get("section")
            key = f"{section}.{f.name}" if section else prefix + f.name
            if not is_dataclass(hints[f.name]) and key != "mf.seed":
                keys[key] = (hints[f.name], f.type)
    return keys


CONFIG_KEYS = _config_keys()
_SECTIONS = {key.split(".")[0] for key in CONFIG_KEYS if "." in key}


def flatten_config(doc) -> dict:
    """A config-file document as {CONFIG_KEYS name: value}; unknown keys raise ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    flat = {}
    for name, value in doc.items():
        if name in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            flat.update((f"{name}.{k}", v) for k, v in value.items())
        else:
            flat[name] = value
    unknown = [k for k in flat if k not in CONFIG_KEYS] + [k for k in doc if "." in k]
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return flat


def _fits(hint, value) -> bool:
    """Whether a JSON or flag value fits a field's type hint."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):
        return any(_fits(h, value) for h in args)
    if origin is Literal:
        return value in args
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        elems = args[:1] * len(value) if args[-1] is Ellipsis else args
        return len(value) == len(elems) and all(map(_fits, elems, value))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def resolve_config(values: dict, base: PipelineConfig | None = None) -> PipelineConfig:
    """The run config: ``values``, by CONFIG_KEYS name, over ``base`` (default PipelineConfig()).

    A value must fit its field's type: an int fits a float, a bool no number,
    and a list of the right length fits (and becomes) a tuple. File keys are
    only checked; names that are no config key (other flags) are ignored.
    """
    base = base or PipelineConfig()
    parts = {"": {}, "mf": {}, "rnn": {}}
    for key, (hint, written) in CONFIG_KEYS.items():
        if key not in values:
            continue
        value = values[key]
        if not _fits(hint, value):
            raise ConfigError(f"config key {key!r} must be {written}, got {value!r}")
        section, _, name = key.rpartition(".")
        if key not in FILE_KEYS:
            parts.get(section, parts[""])[name] = tuple(value) if isinstance(value, list) else value
    return replace(base, mf=replace(base.mf, **parts["mf"]), rnn=replace(base.rnn, **parts["rnn"]),
                   **parts[""])


class SplitMetrics(NamedTuple):
    correlation: float | None
    mse: float
    success_pct: float


@dataclass
class TraitResult:
    trait: int
    cell: str
    status: str = "ok"          # or "failed"
    error: str | None = None
    curve: rnn.TrainingCurve | None = None
    metrics: dict = field(default_factory=dict)  # split name -> SplitMetrics
    n_samples: dict = field(default_factory=dict)


@dataclass
class RunReport:
    """Everything one pipeline run produced, recomputable from config+seeds.

    ``stage_seconds`` is informational only and excluded from exports so
    repeated runs serialize byte-identically.
    """

    config: dict
    seeds: dict
    mf_curve: mf.CostCurve | None = None
    mf_accuracy: tuple | None = None
    trait_results: list[TraitResult] = field(default_factory=list)
    split_sizes: dict = field(default_factory=dict)
    excluded_samples: list[int] = field(default_factory=list)
    stage_seconds: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        doc = {"version": REPORT_VERSION, "config": self.config, "seeds": self.seeds,
               "split_sizes": self.split_sizes,
               "excluded_samples": list(self.excluded_samples)}
        if self.mf_curve is not None:
            doc["mf"] = mf.fit_report(None, self.mf_curve, self.mf_accuracy)
        doc["traits"] = []
        for tr in self.trait_results:
            entry = {"trait": tr.trait, "cell": tr.cell, "status": tr.status,
                     "n_samples": tr.n_samples}
            if tr.error is not None:
                entry["error"] = tr.error
            if tr.curve is not None:
                entry["curve"] = tr.curve.to_rows()
            entry["metrics"] = {split: m._asdict() for split, m in tr.metrics.items()}
            doc["traits"].append(entry)
        return doc


def evaluate_split(model: rnn.RnnParams, batch: SequenceBatch, success_tolerance: float,
                   target_range: float | None = None) -> SplitMetrics:
    """Correlation, MSE, and tolerance-band success rate on one split.

    A prediction counts as a success when |pred - actual| is within
    success_tolerance times the target range; the range should come from
    the training split (pass it in), else this batch's own range is used.
    Constant targets make the correlation undefined (None); the other
    metrics are still returned.
    """
    if len(batch) == 0:
        raise DataError("cannot evaluate an empty batch")
    preds = rnn.predict(model, batch.inputs)
    actual = batch.targets
    corr = rnn.pearson_correlation(preds, actual) if len(batch) >= 2 else None
    mse = rnn.loss_mse(preds, actual)
    if target_range is None:
        target_range = float(actual.max() - actual.min())
    band = success_tolerance * target_range
    per_sample = np.max(np.abs(preds - actual), axis=1)
    success_pct = 100.0 * float(np.mean(per_sample <= band))
    return SplitMetrics(corr, mse, success_pct)


def train_trait(batch: SequenceBatch, split: SplitIndices, cfg: PipelineConfig,
                trait: int) -> tuple[rnn.RnnParams, TraitResult]:
    """Train one trait's model and score it on every split; returns (model, result).

    ``batch`` holds the samples with the trait observed and ``split`` assigns
    them to train, validation and test. Raises DataError when no training
    sample has the trait and DivergenceError when training diverges; either
    carries the failed TraitResult as ``result``.
    """
    parts = {name: batch.subset_by_samples(idx) for name, idx in
             (("train", split.train), ("validation", split.validation), ("test", split.test))}
    result = TraitResult(trait=trait, cell=cfg.rnn.cell,
                         n_samples={name: len(part) for name, part in parts.items()})
    try:
        if len(parts["train"]) == 0:
            raise DataError("no training samples with an observed trait value")
        params = rnn.rnn_init(cfg.rnn.cell, cfg.chunk_width, cfg.rnn.hidden, 1,
                              derive_seed(cfg.seed, f"rnn/trait{trait}"))
        val = parts["validation"] if len(parts["validation"]) else None
        trained, result.curve = rnn.train(params, parts["train"], val, cfg.rnn)
    except (DataError, DivergenceError) as e:
        result.status, result.error, result.curve = "failed", str(e), getattr(e, "curve", None)
        e.result = result
        raise
    train_targets = parts["train"].targets
    target_range = float(train_targets.max() - train_targets.min())
    result.metrics = {name: evaluate_split(trained, part, cfg.success_tolerance, target_range)
                      for name, part in parts.items() if len(part)}
    return trained, result


def run_pipeline(geno_path, pheno_path, cfg: PipelineConfig, truth_path=None) -> RunReport:
    """Execute every stage on the given files and assemble the report.

    Ground-truth metrics appear only when ``truth_path`` is supplied
    (synthetic runs). A divergence while training one trait marks that
    trait's entry failed and the remaining traits still run.
    """
    report = RunReport(config=cfg.to_dict(), seeds={"master": cfg.seed})
    t0 = time.perf_counter()
    geno = parse_genotype_csv(geno_path)
    phenos = parse_phenotype_csv(pheno_path)
    truth = parse_genotype_csv(truth_path) if truth_path is not None else None
    report.stage_seconds["parse"] = time.perf_counter() - t0
    if geno.samples != phenos.samples:
        raise DataError(f"genotype has {geno.samples} samples, phenotypes {phenos.samples}")
    check_traits(cfg.traits, phenos)

    # imputation, or in observed mode the fully observed samples only
    t0 = time.perf_counter()
    if cfg.genotype_mode == "imputed":
        geno, report.mf_curve, report.mf_accuracy = mf.fit_impute(geno, cfg.seeded_mf(), truth)
    else:
        keep = geno.observed.all(axis=1)
        if not keep.any():
            raise DataError("observed mode: no sample is fully observed")
        geno = GenotypeMatrix(geno.codes[keep], geno.observed[keep], geno.snp_ids)
        phenos = PhenotypeTable(phenos.values[keep], phenos.observed[keep], phenos.trait_names)
        report.excluded_samples = np.nonzero(~keep)[0].tolist()
    report.stage_seconds["impute"] = time.perf_counter() - t0

    split_seed = derive_seed(cfg.seed, "split")
    split = split_dataset(geno.samples, cfg.ratios, split_seed)
    report.seeds["split"] = split_seed
    report.seeds["mf"] = cfg.seeded_mf().seed
    report.split_sizes = {"train": int(split.train.size),
                          "validation": int(split.validation.size),
                          "test": int(split.test.size)}

    t0 = time.perf_counter()
    for trait in cfg.traits:
        report.seeds[f"rnn/trait{trait}"] = derive_seed(cfg.seed, f"rnn/trait{trait}")
        batch = build_sequences(geno, phenos, trait, cfg.chunk_width, cfg.normalization)
        try:
            _, result = train_trait(batch, split, cfg, trait)
        except (DataError, DivergenceError) as e:
            result = e.result
            log.warning("trait %d failed: %s", trait, result.error)
        report.trait_results.append(result)
    report.stage_seconds["train"] = time.perf_counter() - t0
    for stage, secs in report.stage_seconds.items():
        log.info("stage %s took %.3f s", stage, secs)
    return report


@dataclass
class CellComparison:
    """Epoch-aligned training curves for several cells on identical data."""

    curves: dict[str, rnn.TrainingCurve]
    final_losses: dict[str, float]
    diverged: dict[str, str]
    ordering: list[str]  # cells sorted by final loss, best first

    def to_json_dict(self) -> dict:
        # a diverged cell's loss is inf here, which JSON cannot hold; it is
        # exported as null, and ``diverged`` says why
        finals = {c: loss if math.isfinite(loss) else None
                  for c, loss in self.final_losses.items()}
        return {"final_losses": finals,
                "ordering": self.ordering,
                "diverged": self.diverged,
                "curves": {c: curve.to_rows() for c, curve in self.curves.items()}}


def compare_on_batch(batch: SequenceBatch, cells, hidden: int, settings: RnnSettings,
                     seed: int) -> CellComparison:
    """Train each cell on the same batch with a matched budget.

    The data, epochs, and learning rate are identical; initializations are
    cell-appropriate (an identity recurrence cannot share values with a
    gaussian one) but all derive from the same seed. A diverging cell
    keeps its partial curve and is marked; the others complete.
    """
    if len(cells) < 2:
        raise ConfigError("cell comparison needs at least two cells")
    init_seed = derive_seed(seed, "compare/init")

    curves, finals, diverged = {}, {}, {}
    for cell in cells:
        params = rnn.rnn_init(cell, batch.chunk_width, hidden, batch.targets.shape[1],
                              init_seed)
        # start every cell at the mean-prediction plateau: with a zero
        # output bias the first epochs chase the target mean, and that
        # transient drifts the hidden biases of integrating cells
        params.b_o[:] = batch.targets.mean(axis=0)
        try:
            _, curves[cell] = rnn.train(params, batch, None, settings)
            finals[cell] = curves[cell].final_train_loss()
        except DivergenceError as e:
            curves[cell] = getattr(e, "curve", rnn.TrainingCurve())
            finals[cell] = float("inf")
            diverged[cell] = str(e)
    ordering = sorted(cells, key=lambda c: finals[c])
    return CellComparison(curves, finals, diverged, ordering)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def export_report(report: RunReport, dir_path, formats=("json", "csv")) -> dict:
    """Write the report and curve files plus a hash manifest; returns the manifest.

    Stage timings are not exported, so identical runs produce identical
    bytes and the manifest hashes match.
    """
    formats = set(formats)
    if not formats:
        raise ConfigError("no export formats requested")
    unknown = formats - {"json", "csv"}
    if unknown:
        raise ConfigError(f"unknown export formats: {sorted(unknown)}")
    out = Path(dir_path)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    if "json" in formats:
        path = out / "report.json"
        write_json(report.to_json_dict(), path)
        written.append(path)
    if "csv" in formats:
        if report.mf_curve is not None:
            path = out / "mf_cost.csv"
            report.mf_curve.to_csv(path)
            written.append(path)
        for tr in report.trait_results:
            if tr.curve is not None:
                path = out / f"trait{tr.trait}_curve.csv"
                tr.curve.to_csv(path)
                written.append(path)
        path = out / "metrics.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("trait,split,correlation,mse,success_pct\n")
            for tr in report.trait_results:
                for split_name, m in tr.metrics.items():
                    corr = repr(float(m.correlation)) if m.correlation is not None else "NA"
                    fh.write(f"{tr.trait},{split_name},{corr},{float(m.mse)!r},"
                             f"{float(m.success_pct)!r}\n")
        written.append(path)

    manifest = {"files": [{"name": p.name, "sha256": _sha256(p)}
                          for p in sorted(written, key=lambda p: p.name)]}
    write_json(manifest, out / "manifest.json")
    return manifest

