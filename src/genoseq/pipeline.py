"""End-to-end orchestration: parse, impute, chunk, train per trait, evaluate.

The stages run in a fixed order and every stage draws its seed from the
master seed by name (see :func:`genoseq.linalg.derive_seed`), so two runs
with the same input files and config, on the same BLAS library and thread
count, export byte-identical reports.

This module also owns the config schema: the config file is the PipelineConfig
tree, each settings-dataclass field one section, so every key, with its default
and type, comes from the dataclass fields (see resolve_config), and
PipelineConfig.to_config writes the one layout every export's ``config`` has.
"""

from __future__ import annotations

import hashlib
import logging
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Literal, NamedTuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import mf, rnn
from .data import (DataSettings, SequenceBatch, build_sequences, check_traits, parse_genotype_csv,
                   parse_phenotype_csv, write_csv, write_json)
from .errors import ConfigError, DataError, DivergenceError, GenoseqError
from .linalg import derive_seed
from .rnn import RnnSettings

log = logging.getLogger("genoseq.pipeline")

REPORT_VERSION = "genoseq-report-v3"
FILE_KEYS = ("out", "geno", "pheno", "truth")  # config-file paths, not run settings


@dataclass(frozen=True)
class PipelineConfig:
    mf: mf.MfConfig = field(default_factory=mf.MfConfig)
    rnn: RnnSettings = field(default_factory=RnnSettings)
    data: DataSettings = field(default_factory=DataSettings)
    seed: int = 0
    traits: tuple[int, ...] = (0,)
    success_tolerance: float = 0.1

    def __post_init__(self):
        if not self.traits:
            raise ConfigError("at least one trait index is required")
        if self.success_tolerance < 0:
            raise ConfigError(f"success_tolerance must be >= 0, got {self.success_tolerance}")

    def to_config(self) -> dict:
        """The config file that resolve_config reads back to this config (JSON lists its tuples)."""
        return asdict(self)

    def seeds(self) -> dict[str, int]:
        """The master seed and, by label, every stage seed derived from it.

        The stages are the split, the factorization ("mf") and each trait's
        initial model ("rnn/trait{t}"). A run report exports this dict.
        """
        labels = ("split", "mf") + tuple(f"rnn/trait{t}" for t in self.traits)
        return {"master": self.seed, **{label: derive_seed(self.seed, label) for label in labels}}

    def split(self, n_samples: int) -> dict[str, np.ndarray]:
        """The train/validation/test split of ``n_samples``, with its stage seed."""
        return self.data.split(n_samples, self.seeds()["split"])


def _config_keys() -> dict[str, tuple]:
    """{"section.name" or top-level name: (type hint, type as written)} for every config key.

    A PipelineConfig field that holds a settings dataclass is a section, and
    each of that dataclass's fields is a key in it; every other field is a
    top-level key, and so are the FILE_KEYS.
    """
    keys = {k: (str, "str") for k in FILE_KEYS}
    hints = get_type_hints(PipelineConfig)
    for f in fields(PipelineConfig):
        if is_dataclass(hints[f.name]):
            section_hints = get_type_hints(hints[f.name])
            keys.update((f"{f.name}.{g.name}", (section_hints[g.name], g.type))
                        for g in fields(hints[f.name]))
        else:
            keys[f.name] = (hints[f.name], f.type)
    return keys


CONFIG_KEYS = _config_keys()
_SECTIONS = tuple(dict.fromkeys(key.split(".")[0] for key in CONFIG_KEYS if "." in key))


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
    """Whether a JSON or flag value fits a field's type hint; a float must be finite."""
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
    if hint is float:  # a finite float, or an int that converts to one
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, hint)


def resolve_config(values: dict) -> PipelineConfig:
    """The run config: ``values``, by CONFIG_KEYS name, over the defaults of PipelineConfig().

    A value must fit its field's type: an int fits a float, a bool no number,
    NaN and infinity no float, and a list of the right length fits (and
    becomes) a tuple. File keys are only checked; names that are no config
    key (other flags) are ignored.
    """
    parts = {section: {} for section in ("", *_SECTIONS)}
    for key, (hint, written) in CONFIG_KEYS.items():
        if key not in values:
            continue
        value = values[key]
        if not _fits(hint, value):
            raise ConfigError(f"config key {key!r} must be {written}, got {value!r}")
        section, _, name = key.rpartition(".")
        if key not in FILE_KEYS:
            parts[section][name] = tuple(value) if isinstance(value, list) else value
    default = PipelineConfig()
    sections = {s: replace(getattr(default, s), **parts[s]) for s in _SECTIONS}
    return replace(default, **sections, **parts[""])


class SplitMetrics(NamedTuple):
    correlation: float | None
    mse: float
    success_pct: float


@dataclass
class TraitResult:
    trait: int
    error: GenoseqError | None = None  # why the trait failed; None when it trained
    curve: rnn.TrainingCurve | None = None
    metrics: dict = field(default_factory=dict)  # split name -> SplitMetrics
    n_samples: dict = field(default_factory=dict)


@dataclass
class RunReport:
    """Everything one pipeline run produced, recomputable from its ``cfg``.

    The report holds the run's PipelineConfig, and its export writes the
    config, the stage seeds and each trait's cell from it. ``stage_seconds``
    is informational only and excluded from exports so repeated runs
    serialize byte-identically.
    """

    cfg: PipelineConfig
    mf_curve: mf.CostCurve | None = None
    mf_accuracy: tuple | None = None
    trait_results: list[TraitResult] = field(default_factory=list)
    split_sizes: dict = field(default_factory=dict)
    stage_seconds: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        doc = {"version": REPORT_VERSION, "config": self.cfg.to_config(),
               "seeds": self.cfg.seeds(), "split_sizes": self.split_sizes,
               "mf": mf.fit_report(self.mf_curve, self.mf_accuracy), "traits": []}
        for tr in self.trait_results:
            entry = {"trait": tr.trait, "cell": self.cfg.rnn.cell,
                     "status": "ok" if tr.error is None else "failed", "n_samples": tr.n_samples}
            if tr.error is not None:
                entry["error"] = str(tr.error)
            if tr.curve is not None:
                entry["curve"] = tr.curve.to_rows()
            entry["metrics"] = {split: m._asdict() for split, m in tr.metrics.items()}
            doc["traits"].append(entry)
        return doc


def evaluate_split(model: rnn.RnnParams, batch: SequenceBatch, success_tolerance: float,
                   target_range: float) -> SplitMetrics:
    """Correlation, MSE, and tolerance-band success rate on one split.

    A prediction counts as a success when |pred - actual| is within
    success_tolerance times ``target_range``, the training split's target
    range. Constant targets make the correlation undefined (None); the other
    metrics are still returned.
    """
    preds = rnn.predict(model, batch.inputs)
    actual = batch.targets
    corr = rnn.pearson_correlation(preds, actual)
    mse = rnn.loss_mse(preds, actual)
    band = success_tolerance * target_range
    worst = np.max(np.abs(preds - actual), axis=1)
    success_pct = 100.0 * float(np.mean(worst <= band))
    return SplitMetrics(corr, mse, success_pct)


def train_trait(batch: SequenceBatch, split: dict[str, np.ndarray], cfg: PipelineConfig,
                trait: int) -> tuple[rnn.RnnParams | None, TraitResult]:
    """Train one trait's model and score it on every split; returns (model, result).

    ``batch`` holds the samples with the trait observed, ``split`` maps
    each split name to its sample indices (see DataSettings.split), and
    ``trait`` is one of ``cfg.traits``. A trait that cannot be trained
    returns no model and a result whose ``error`` says why: a DataError
    when no training sample has the trait, or the DivergenceError of a
    training that diverged, whose partial curve the result keeps.
    """
    parts = {name: batch.subset_by_samples(idx) for name, idx in split.items()}
    result = TraitResult(trait=trait, n_samples={name: len(part) for name, part in parts.items()})
    if len(parts["train"]) == 0:
        result.error = DataError("no training samples with an observed trait value")
        return None, result
    params = rnn.rnn_init(cfg.rnn.cell, batch.inputs.shape[2], cfg.rnn.hidden, 1,
                          cfg.seeds()[f"rnn/trait{trait}"])
    val = parts["validation"] if len(parts["validation"]) else None
    try:
        trained, result.curve = rnn.train(params, parts["train"], val, cfg.rnn)
    except DivergenceError as e:
        e.__context__ = None  # keep the error, not the frames of the training it ended
        result.error, result.curve = e.with_traceback(None), e.curve
        return None, result
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
    report = RunReport(cfg)
    t0 = time.perf_counter()
    geno = parse_genotype_csv(geno_path)
    phenos = parse_phenotype_csv(pheno_path)
    truth = parse_genotype_csv(truth_path) if truth_path is not None else None
    report.stage_seconds["parse"] = time.perf_counter() - t0
    if geno.samples != phenos.samples:
        raise DataError(f"genotype has {geno.samples} samples, phenotypes {phenos.samples}")
    check_traits(cfg.traits, phenos)

    t0 = time.perf_counter()
    geno, report.mf_curve, report.mf_accuracy = mf.fit_impute(geno, cfg.mf, cfg.seeds()["mf"],
                                                              truth)
    report.stage_seconds["impute"] = time.perf_counter() - t0

    split = cfg.split(geno.samples)
    report.split_sizes = {name: int(idx.size) for name, idx in split.items()}

    t0 = time.perf_counter()
    for trait in cfg.traits:
        batch = build_sequences(geno, phenos, trait, cfg.data.chunk_width)
        _, result = train_trait(batch, split, cfg, trait)
        if result.error is not None:
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


def compare_on_batch(batch: SequenceBatch, cells, settings: RnnSettings,
                     seed: int) -> CellComparison:
    """Train each cell on the same batch with a matched budget.

    The data, width, epochs, and learning rate are identical; initializations are
    cell-appropriate (an identity recurrence cannot share values with a
    gaussian one) but all derive from the same seed. A diverging cell
    keeps its partial curve and is marked; the others complete.
    """
    if len(cells) < 2:
        raise ConfigError("cell comparison needs at least two cells")
    if len(set(cells)) != len(cells):
        raise ConfigError(f"cell comparison names a cell more than once: {list(cells)}")
    if settings.epochs < 1:
        raise ConfigError(f"cell comparison needs at least one epoch, got {settings.epochs}")
    init_seed = derive_seed(seed, "compare/init")

    curves, finals, diverged = {}, {}, {}
    for cell in cells:
        params = rnn.rnn_init(cell, batch.inputs.shape[2], settings.hidden,
                              batch.targets.shape[1], init_seed)
        # start every cell at the mean-prediction plateau: with a zero
        # output bias the first epochs chase the target mean, and that
        # transient drifts the hidden biases of integrating cells
        params.b_o[:] = batch.targets.mean(axis=0)
        try:
            _, curves[cell] = rnn.train(params, batch, None, settings)
            finals[cell] = curves[cell].final_train_loss()
        except DivergenceError as e:
            curves[cell] = e.curve
            finals[cell] = float("inf")
            diverged[cell] = str(e)
    ordering = sorted(cells, key=lambda c: finals[c])
    return CellComparison(curves, finals, diverged, ordering)


def export_report(report: RunReport, dir_path) -> dict:
    """Write report.json, mf_cost.csv, each trait's curve, metrics.csv and a hash manifest.

    Returns the manifest. Stage timings are not exported, so identical runs
    produce identical bytes and the manifest hashes match.
    """
    out = Path(dir_path)
    out.mkdir(parents=True, exist_ok=True)
    write_json(report.to_json_dict(), out / "report.json")
    report.mf_curve.to_csv(out / "mf_cost.csv")
    written = ["report.json", "mf_cost.csv", "metrics.csv"]
    for tr in report.trait_results:
        if tr.curve is not None:
            written.append(f"trait{tr.trait}_curve.csv")
            tr.curve.to_csv(out / written[-1])
    write_csv(out / "metrics.csv", ("trait", "split", "correlation", "mse", "success_pct"),
              ((str(tr.trait), split_name,
                repr(float(m.correlation)) if m.correlation is not None else "NA",
                repr(float(m.mse)), repr(float(m.success_pct)))
               for tr in report.trait_results for split_name, m in tr.metrics.items()))
    manifest = {"files": [{"name": n, "sha256": hashlib.sha256((out / n).read_bytes()).hexdigest()}
                          for n in sorted(written)]}
    write_json(manifest, out / "manifest.json")
    return manifest
