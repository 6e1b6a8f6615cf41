"""Genotype imputation by regularized gradient-descent matrix factorization.

Two factor matrices p (samples x features) and q (snps x features) are fit
so that p @ q.T approximates the genotype matrix on its observed entries.
The objective is

    sum over observed (u,v) of (G[u,v] - (p @ q.T)[u,v])**2
    + (beta / 2) * (||p||_F**2 + ||q||_F**2)

Note the regularizer uses squared Frobenius norms: the plain update rules
for p and q are the gradient of the squared form, and the squared form is
differentiable at zero, so that convention is used throughout.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .data import GenotypeMatrix, text_sink
from .errors import ConfigError, DataError, DivergenceError, ShapeError
from .linalg import Rng, frobenius_sq

MF_MODES = ("full_batch", "per_entry")


@dataclass(frozen=True)
class MfConfig:
    """Hyperparameters of one factorization run.

    Defaults: learning rate 0.001, regularization weight 0.02, 5000
    epochs, 400 latent features, factors drawn uniformly from [0, 1].
    """

    features: int = 400
    alpha: float = 0.001
    beta: float = 0.02
    epochs: int = 5000
    init_range: tuple[float, float] = (0.0, 1.0)
    seed: int = 0
    cost_tolerance: float | None = None
    mode: str = "full_batch"

    def __post_init__(self):
        if self.features < 1:
            raise ConfigError(f"features must be >= 1, got {self.features}")
        if not self.alpha > 0:
            raise ConfigError(f"alpha must be > 0, got {self.alpha}")
        if self.beta < 0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        a, b = self.init_range
        if not a < b:
            raise ConfigError(f"init_range requires a < b, got [{a}, {b}]")
        if self.mode not in MF_MODES:
            raise ConfigError(f"mode must be one of {MF_MODES}, got {self.mode!r}")


@dataclass
class FactorPair:
    """The two latent-factor matrices; p.cols == q.cols == features."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        self.q = np.asarray(self.q, dtype=np.float64)
        if self.p.ndim != 2 or self.q.ndim != 2 or self.p.shape[1] != self.q.shape[1]:
            raise ShapeError(f"factor shapes incompatible: p {self.p.shape}, q {self.q.shape}")

    @property
    def features(self) -> int:
        return self.p.shape[1]

    def copy(self) -> "FactorPair":
        return FactorPair(self.p.copy(), self.q.copy())


@dataclass
class CostRecord:
    epoch: int
    mse: float       # mean squared error over observed entries
    objective: float  # summed squared error plus regularization


@dataclass
class CostCurve:
    """Per-epoch reconstruction cost; n_observed converts mse back to sse."""

    records: list[CostRecord] = field(default_factory=list)
    n_observed: int = 0

    def __len__(self) -> int:
        return len(self.records)

    def final_sse(self) -> float:
        return self.records[-1].mse * self.n_observed if self.records else float("nan")

    def to_csv(self, dest) -> None:
        with text_sink(dest) as fh:
            fh.write("epoch,sse,objective\n")
            for r in self.records:
                fh.write(f"{r.epoch},{float(r.mse * self.n_observed)!r},{float(r.objective)!r}\n")

    def to_rows(self) -> list[dict]:
        return [{"epoch": r.epoch, "mse": r.mse, "objective": r.objective} for r in self.records]


def _masked_residual(g: GenotypeMatrix, fp: FactorPair) -> np.ndarray:
    """G - p@q.T with zeros at unobserved cells (the sentinel never leaks)."""
    recon = fp.p @ fp.q.T
    diff = g.codes.astype(np.float64) - recon
    return np.where(g.observed, diff, 0.0)


def mf_init(samples: int, snps: int, cfg: MfConfig) -> FactorPair:
    """Draw both factors i.i.d. uniform on cfg.init_range from cfg.seed.

    p is filled first, then q, from one stream, so the result is a pure
    function of (samples, snps, cfg).
    """
    if samples < 1 or snps < 1:
        raise ShapeError(f"need samples, snps >= 1, got {samples}x{snps}")
    lo, hi = cfg.init_range
    rng = Rng(cfg.seed)
    p = rng.uniform((samples, cfg.features), lo, hi)
    q = rng.uniform((snps, cfg.features), lo, hi)
    return FactorPair(p, q)


def mf_reconstruct(fp: FactorPair) -> np.ndarray:
    """The estimated genotype matrix p @ q.T."""
    return fp.p @ fp.q.T


def mf_cost(g: GenotypeMatrix, fp: FactorPair, beta: float) -> tuple[float, float]:
    """(sse, objective): squared error over observed cells, plus regularization."""
    d = _masked_residual(g, fp)
    sse = float(np.sum(d * d))
    objective = sse + 0.5 * beta * (frobenius_sq(fp.p) + frobenius_sq(fp.q))
    return sse, objective


def mf_gradients(g: GenotypeMatrix, fp: FactorPair, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of the objective with respect to p and q."""
    d = _masked_residual(g, fp)
    dp = -2.0 * (d @ fp.q) + beta * fp.p
    dq = -2.0 * (d.T @ fp.p) + beta * fp.q
    return dp, dq


def mf_epoch(g: GenotypeMatrix, fp: FactorPair, cfg: MfConfig, epoch: int = 0):
    """One optimization epoch; returns (updated factors, cost record).

    full_batch mode takes a single step along the full gradient. per_entry
    mode sweeps observed cells in row-major order, updating the touched
    factor rows after each cell (p's row first, then q's row using the
    fresh p values).
    """
    # overflow to inf is detected below and reported as divergence, so the
    # intermediate warnings carry no information
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.mode == "full_batch":
            dp, dq = mf_gradients(g, fp, cfg.beta)
            new = FactorPair(fp.p - cfg.alpha * dp, fp.q - cfg.alpha * dq)
        else:
            p = fp.p.copy()
            q = fp.q.copy()
            codes = g.codes.astype(np.float64)
            for u in range(g.samples):
                for v in np.nonzero(g.observed[u])[0]:
                    err = codes[u, v] - p[u] @ q[v]
                    p_u = p[u] + cfg.alpha * (2.0 * err * q[v] - cfg.beta * p[u])
                    q[v] = q[v] + cfg.alpha * (2.0 * err * p_u - cfg.beta * q[v])
                    p[u] = p_u
            new = FactorPair(p, q)
        sse, objective = mf_cost(g, new, cfg.beta)
    if not np.isfinite(objective):
        raise DivergenceError("factorization diverged; reduce alpha", epoch=epoch)
    n_obs = int(g.observed.sum())
    mse = sse / n_obs if n_obs else 0.0
    return new, CostRecord(epoch, mse, objective)


def mf_fit(g: GenotypeMatrix, cfg: MfConfig):
    """Run cfg.epochs epochs from a fresh init; returns (factors, cost curve).

    Stops early once the objective drops below cfg.cost_tolerance, when one
    is set. The curve records every executed epoch.
    """
    n_obs = int(g.observed.sum())
    if n_obs == 0:
        raise DataError("genotype matrix has no observed entries to fit")
    fp = mf_init(g.samples, g.snps, cfg)
    curve = CostCurve(n_observed=n_obs)
    for epoch in range(cfg.epochs):
        fp, record = mf_epoch(g, fp, cfg, epoch)
        curve.records.append(record)
        if cfg.cost_tolerance is not None and record.objective < cfg.cost_tolerance:
            break
    return fp, curve


def impute(g: GenotypeMatrix, fp: FactorPair) -> GenotypeMatrix:
    """Fill unobserved cells with the rounded, clamped reconstruction.

    Observed cells keep their original codes. Rounding is to the nearest
    integer (ties to even) clamped into {0, 1, 2}; the result is fully
    observed.
    """
    recon = rounded_reconstruction(g, fp)
    return GenotypeMatrix(np.where(g.observed, g.codes, recon.codes), recon.observed, recon.snp_ids)


def fit_impute(g: GenotypeMatrix, cfg: MfConfig, truth: GenotypeMatrix | None = None):
    """Fit, fill the holes once, and score against ``truth`` when given.

    Returns (imputed matrix, cost curve, accuracy); accuracy is None without a
    truth, else (missing_pct of the imputation, full_pct of the rounded reconstruction).
    """
    factors, curve = mf_fit(g, cfg)
    imputed = impute(g, factors)
    accuracy = None
    if truth is not None:
        holes = ~g.observed
        accuracy = (imputation_accuracy(truth, imputed, holes)[0],
                    imputation_accuracy(truth, rounded_reconstruction(g, factors), holes)[1])
    return imputed, curve, accuracy


def rounded_reconstruction(g: GenotypeMatrix, fp: FactorPair) -> GenotypeMatrix:
    """The reconstruction rounded to codes everywhere, ignoring observations."""
    recon = np.clip(np.rint(mf_reconstruct(fp)), 0, 2).astype(g.codes.dtype)
    ids = list(g.snp_ids) if g.snp_ids is not None else None
    return GenotypeMatrix(recon, np.ones_like(recon, dtype=bool), ids)


def imputation_accuracy(truth: GenotypeMatrix, imputed: GenotypeMatrix, holes: np.ndarray):
    """Percent agreement with the truth: (over holed cells, over all cells).

    ``holes`` marks the cells that were missing before imputation. With no
    holes the first percentage is undefined and reported as None.
    """
    if truth.codes.shape != imputed.codes.shape or truth.codes.shape != holes.shape:
        raise ShapeError(f"shape mismatch: truth {truth.codes.shape}, imputed "
                         f"{imputed.codes.shape}, holes {holes.shape}")
    if not truth.fully_observed() or not imputed.fully_observed():
        raise DataError("accuracy needs fully observed truth and imputed matrices")
    agree = truth.codes == imputed.codes
    full_pct = 100.0 * float(np.mean(agree))
    n_holes = int(holes.sum())
    missing_pct = 100.0 * float(np.mean(agree[holes])) if n_holes else None
    return missing_pct, full_pct


def fit_report(cfg: MfConfig | None, curve: CostCurve, accuracy=None) -> dict:
    """JSON-ready summary of one fit: resolved config (when given), curve, optional accuracy."""
    report = {"n_observed": curve.n_observed, "curve": curve.to_rows()}
    if cfg is not None:
        report["config"] = asdict(cfg)
    if accuracy is not None:
        missing_pct, full_pct = accuracy
        report["accuracy"] = {"missing_pct": missing_pct, "full_pct": full_pct}
    return report

