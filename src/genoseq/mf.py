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

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .data import Curve, GenotypeMatrix
from .errors import ConfigError, DataError, DivergenceError
from .linalg import Rng, buffer

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
        if float(b) - float(a) == float("inf"):  # finite bounds can still be too far apart
            raise ConfigError(f"init_range requires a finite width b - a, got [{a}, {b}]")
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
            raise DataError(f"factor shapes incompatible: p {self.p.shape}, q {self.q.shape}")


@dataclass
class CostRecord:
    epoch: int
    mse: float       # mean squared error over observed entries
    sse: float       # summed squared error over observed entries
    objective: float  # summed squared error plus regularization


@dataclass
class CostCurve(Curve):
    n_observed: int = 0  # the fitted matrix's observed entries, over which each mse averages
    csv_columns = ("epoch", "sse", "objective")

    def final_sse(self) -> float:
        return self.records[-1].sse if self.records else float("nan")


def _masked_residual(g: GenotypeMatrix, fp: FactorPair, workspace: dict) -> np.ndarray:
    """G - p@q.T built in place in ``workspace["residual"]``, zero at the unobserved cells."""
    d = np.matmul(fp.p, fp.q.T, out=buffer(workspace, "residual", g.codes.shape))
    np.subtract(g.codes, d, out=d)
    if "holes" not in workspace:  # int32 where it fits: an intp index zeroes about 0.25 ms
        # faster per call at 604x1980, but four paper-scale fits in one process peak 6 MB higher
        dtype = np.int32 if g.codes.size < 2**31 else np.intp
        workspace["holes"] = np.flatnonzero(~g.observed).astype(dtype, copy=False)
    d.reshape(-1)[workspace["holes"]] = 0.0
    return d


def _scratch(d: np.ndarray, like: np.ndarray):
    """A ``like``-shaped view of the spent residual ``d``, or None (allocate) if it has no room."""
    return d.reshape(-1)[:like.size].reshape(like.shape) if d.size >= like.size else None


def _diagonals(g: GenotypeMatrix) -> list:
    """Observed cells as (rows, cols, int8 codes), one triple per anti-diagonal u+v, in order."""
    us, vs = np.nonzero(g.observed)
    order = np.argsort(us + vs, kind="stable")  # row-major within each diagonal
    us, vs = us[order], vs[order]
    cuts = np.flatnonzero(np.diff(us + vs)) + 1
    return list(zip(np.split(us, cuts), np.split(vs, cuts), np.split(g.codes[us, vs], cuts)))


def mf_init(samples: int, snps: int, cfg: MfConfig, seed: int) -> FactorPair:
    """Draw both factors i.i.d. uniform on cfg.init_range from ``seed``.

    p is filled first, then q, from one stream, so the result is a pure
    function of (samples, snps, cfg, seed).
    """
    if samples < 1 or snps < 1:
        raise DataError(f"need samples, snps >= 1, got {samples}x{snps}")
    lo, hi = cfg.init_range
    rng = Rng(seed)
    p = rng.uniform((samples, cfg.features), lo, hi)
    q = rng.uniform((snps, cfg.features), lo, hi)
    return FactorPair(p, q)


def mf_cost(g: GenotypeMatrix, fp: FactorPair, beta: float, workspace: dict | None = None):
    """(sse, objective): squared error over observed cells, plus regularization."""
    workspace = {} if workspace is None else workspace
    d = _masked_residual(g, fp, workspace)
    sse = float(np.sum(np.multiply(d, d, out=d)))
    norms = sum(float(np.sum(np.multiply(f, f, out=_scratch(d, f)))) for f in (fp.p, fp.q))
    return sse, sse + 0.5 * beta * norms


def mf_gradients(g: GenotypeMatrix, fp: FactorPair, beta: float,
                 workspace: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of the objective with respect to p and q, in the workspace's p, q."""
    workspace = {} if workspace is None else workspace
    d = _masked_residual(g, fp, workspace)
    dp = np.matmul(d, fp.q, out=buffer(workspace, "p", fp.p.shape))
    dq = np.matmul(d.T, fp.p, out=buffer(workspace, "q", fp.q.shape))
    for grad, factor in ((dp, fp.p), (dq, fp.q)):  # -2.0 * grad + beta * factor, in place
        grad *= -2.0
        grad += np.multiply(beta, factor, out=_scratch(d, factor))
    return dp, dq


def mf_epoch(g: GenotypeMatrix, fp: FactorPair, cfg: MfConfig, epoch: int = 0,
             workspace: dict | None = None):
    """One optimization epoch; returns (updated factors, cost record).

    full_batch mode takes a single step along the full gradient. per_entry
    mode makes the row-major cell-by-cell updates (p's row, then q's row
    from the fresh p row) bit for bit, one vectorized step per anti-diagonal
    u+v: a diagonal's cells share no factor row, and each cell's row and
    column predecessors lie on earlier diagonals. Dots use np.matmul, as
    ``p[u] @ q[v]`` does. ``fp`` is never changed: the new factors go to the
    p, q pair of ``workspace`` (see :func:`genoseq.linalg.buffer`), which its
    next epoch overwrites unless the caller swaps in other arrays, as mf_fit
    does. The workspace also keeps ``g``'s hole index, so it serves one matrix.
    """
    workspace = {} if workspace is None else workspace
    # overflow to inf is detected below and reported as divergence, so the
    # intermediate warnings carry no information
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.mode == "full_batch":
            dp, dq = mf_gradients(g, fp, cfg.beta, workspace)
            dp *= cfg.alpha  # p - alpha * dp, stepped inside the gradient buffers
            dq *= cfg.alpha
            new = FactorPair(np.subtract(fp.p, dp, out=dp), np.subtract(fp.q, dq, out=dq))
        else:
            p, q = buffer(workspace, "p", fp.p.shape), buffer(workspace, "q", fp.q.shape)
            p[:], q[:] = fp.p, fp.q
            if "diagonals" not in workspace:
                workspace["diagonals"] = _diagonals(g)
            for us, vs, codes in workspace["diagonals"]:
                pu, qv = p[us], q[vs]
                err = codes - np.matmul(pu[:, None, :], qv[:, :, None])[:, 0, 0]  # exact int8 cast
                err2 = (2.0 * err)[:, None]
                p_u = pu + cfg.alpha * (err2 * qv - cfg.beta * pu)
                q[vs] = qv + cfg.alpha * (err2 * p_u - cfg.beta * qv)
                p[us] = p_u
            new = FactorPair(p, q)
        sse, objective = mf_cost(g, new, cfg.beta, workspace)
    if not np.isfinite(objective):
        raise DivergenceError("factorization diverged; reduce alpha", epoch=epoch)
    n_obs = g.codes.size - workspace["holes"].size
    mse = sse / n_obs if n_obs else 0.0
    return new, CostRecord(epoch, mse, sse, objective)


def mf_fit(g: GenotypeMatrix, cfg: MfConfig, seed: int):
    """Run cfg.epochs epochs from the init drawn from ``seed``; returns (factors, cost curve)."""
    n_obs = int(g.observed.sum())
    if n_obs == 0:
        raise DataError("genotype matrix has no observed entries to fit")
    fp = mf_init(g.samples, g.snps, cfg, seed)
    curve, ws = CostCurve(n_observed=n_obs), {}
    for epoch in range(cfg.epochs):
        new, record = mf_epoch(g, fp, cfg, epoch, ws)
        ws["p"], ws["q"] = fp.p, fp.q  # the old factors take the next epoch's step
        fp = new
        curve.records.append(record)
    return fp, curve


def impute(g: GenotypeMatrix, fp: FactorPair) -> GenotypeMatrix:
    """Fill unobserved cells with the rounded, clamped reconstruction.

    Observed cells keep their original codes. Rounding is to the nearest
    integer (ties to even) clamped into {0, 1, 2}; the result is fully
    observed.
    """
    return _filled(g, rounded_reconstruction(g, fp))


def _filled(g: GenotypeMatrix, recon: GenotypeMatrix) -> GenotypeMatrix:
    """``g`` with its holes taken from the rounded reconstruction ``recon``."""
    return GenotypeMatrix(np.where(g.observed, g.codes, recon.codes), recon.snp_ids)


def fit_impute(g: GenotypeMatrix, cfg: MfConfig, seed: int,
               read_truth: Callable[[], GenotypeMatrix] | None = None):
    """Fit, fill the holes once, and score against the truth ``read_truth()`` returns, if given.

    Returns (imputed matrix, cost curve, accuracy); accuracy is None without a truth, else
    (missing_pct, full_pct) of the rounded reconstruction, whose holes the imputation took.
    The truth is read twice, so the fit holds none of it: before the fit, to reject a truth of
    another shape than ``g`` or with holes, and after it, to score.
    """
    if read_truth is not None and not _fits(g, read_truth()):
        raise DataError(f"truth must be a fully observed {g.samples}x{g.snps} genotype matrix")
    factors, curve = mf_fit(g, cfg, seed)
    recon = rounded_reconstruction(g, factors)
    imputed = _filled(g, recon)
    accuracy = imputation_accuracy(read_truth(), recon, ~g.observed) if read_truth else None
    return imputed, curve, accuracy


def _fits(g: GenotypeMatrix, truth: GenotypeMatrix) -> bool:
    return truth.codes.shape == g.codes.shape and truth.fully_observed()


def rounded_reconstruction(g: GenotypeMatrix, fp: FactorPair) -> GenotypeMatrix:
    """The reconstruction rounded to codes everywhere, ignoring observations."""
    recon = fp.p @ fp.q.T  # rounded and clamped in place, then cast
    recon = np.clip(np.rint(recon, out=recon), 0, 2, out=recon).astype(g.codes.dtype)
    ids = list(g.snp_ids) if g.snp_ids is not None else None
    return GenotypeMatrix(recon, ids)


def imputation_accuracy(truth: GenotypeMatrix, imputed: GenotypeMatrix, holes: np.ndarray):
    """Percent agreement with the truth: (over holed cells, over all cells).

    ``holes`` marks the cells that were missing before imputation. With no
    holes the first percentage is undefined and reported as None.
    """
    if truth.codes.shape != imputed.codes.shape or truth.codes.shape != holes.shape:
        raise DataError(f"shape mismatch: truth {truth.codes.shape}, imputed "
                        f"{imputed.codes.shape}, holes {holes.shape}")
    if not truth.fully_observed() or not imputed.fully_observed():
        raise DataError("accuracy needs fully observed truth and imputed matrices")
    agree = truth.codes == imputed.codes
    full_pct = 100.0 * float(np.mean(agree))
    n_holes = int(holes.sum())
    missing_pct = 100.0 * float(np.mean(agree[holes])) if n_holes else None
    return missing_pct, full_pct


def fit_report(curve: CostCurve, accuracy=None) -> dict:
    """JSON-ready summary of one fit: its curve and, when scored against a truth, accuracy."""
    report = {"n_observed": curve.n_observed, "curve": curve.to_rows()}
    if accuracy is not None:
        missing_pct, full_pct = accuracy
        report["accuracy"] = {"missing_pct": missing_pct, "full_pct": full_pct}
    return report

