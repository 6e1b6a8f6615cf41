"""Finite-difference oracles for the analytic gradients.

Every scope is a loss over named arrays; central differences with step h
perturb one entry at a time, in the arrays' order. The numeric gradient
is compared against the analytic one by max relative error over
components whose magnitude clears a floor (tiny ones say nothing useful).

For relu cells, instances whose pre-activations sit within a guard band
of the kink are re-drawn: the derivative is discontinuous there and a
finite difference straddling it is meaningless.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import mf, rnn
from .data import MISSING_SENTINEL, GenotypeMatrix
from .errors import ConfigError
from .linalg import Rng, derive_seed

DEFAULT_THRESHOLD = 1e-5
_RELU_KINK_GUARD = 1e-3
_STEP = 1e-5  # the central-difference step h


def central_difference(f, theta: np.ndarray) -> np.ndarray:
    """Numeric gradient of scalar f at theta, one coordinate at a time."""
    grad = np.empty_like(theta)
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = _STEP
        grad[i] = (f(theta + bump) - f(theta - bump)) / (2.0 * _STEP)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, noise_floor: float,
                       threshold: float = DEFAULT_THRESHOLD) -> float:
    """Largest min(|a - n| / max(|a|, |n|), threshold * |a - n| / noise_floor).

    Only components of magnitude max(|a|, |n|) above 1e-8 count.
    ``noise_floor`` is the absolute resolution of the numeric oracle itself
    (roundoff in f(x+h) - f(x-h) divided by 2h): a discrepancy below it
    cannot be attributed to the analytic gradient. So a component reaches
    ``threshold`` exactly when |a - n| >= threshold * max(|a|, |n|) and
    |a - n| >= noise_floor. A NaN or infinite component on either side is
    an error of inf.
    """
    a = np.asarray(analytic).reshape(-1)
    n = np.asarray(numeric).reshape(-1)
    if not (np.isfinite(a).all() and np.isfinite(n).all()):
        return float("inf")
    scale = np.maximum(np.abs(a), np.abs(n))
    keep = scale > 1e-8
    if not keep.any():
        return 0.0
    with np.errstate(over="ignore"):  # an overflow reads inf, a failure
        diff = np.abs(a - n)[keep]
        return float(np.max(np.minimum(diff / scale[keep], threshold * (diff / noise_floor))))


def fd_noise_floor(f_magnitude: float) -> float:
    """Roundoff resolution of a central difference on a float64 function."""
    eps = np.finfo(np.float64).eps
    return 64.0 * eps * max(abs(f_magnitude), 0.1) / (2.0 * _STEP)


def _draw_mf(rng: Rng):
    """A random factorization objective of both factors, as (loss, params, analytic gradient).

    Samples and snps are <= 8, features <= 3 and ~20% of the cells are unobserved.
    """
    u = rng.randint(2, 9)
    v = rng.randint(2, 9)
    f_lat = rng.randint(1, 4)
    codes = np.floor(rng.uniform((u, v), 0, 3)).astype(np.int8)
    observed = rng.uniform((u, v)) > 0.2
    if not observed.any():
        observed[0, 0] = True
    codes[~observed] = MISSING_SENTINEL
    g = GenotypeMatrix(codes)
    beta = float(rng.uniform(1, 0.0, 0.1)[0])
    params = {"p": rng.uniform((u, f_lat), -1.0, 1.0), "q": rng.uniform((v, f_lat), -1.0, 1.0)}
    dp, dq = mf.mf_gradients(g, mf.FactorPair(**params), beta)
    return lambda t: mf.mf_cost(g, mf.FactorPair(**t), beta)[1], params, {"p": dp, "q": dq}


def _pack(arrays: dict[str, np.ndarray], names) -> np.ndarray:
    """The named arrays as one vector, in the order of ``names``."""
    return np.concatenate([arrays[k].reshape(-1) for k in names])


def _unpack(like: dict[str, np.ndarray], theta: np.ndarray) -> dict[str, np.ndarray]:
    """``theta`` cut into arrays shaped and named as in ``like``, in its order."""
    parts = np.split(theta, np.cumsum([v.size for v in like.values()])[:-1])
    return {k: part.reshape(v.shape) for (k, v), part in zip(like.items(), parts)}


def _random_instance(cell: str, rng: Rng):
    t_len = rng.randint(2, 7)
    n_in = rng.randint(1, 4)
    m = rng.randint(2, 5)
    n_out = rng.randint(1, 3)
    batch = rng.randint(1, 4)
    params = rnn.rnn_init(cell, n_in, m, n_out, seed=int(rng.raw(1)[0]))
    # check at a generic, well-conditioned point: the special init values
    # (identity recurrence, saturated forget bias) produce near-zero
    # gradient components that central differences cannot resolve
    tensors = {k: rng.gaussian(v.shape, 0.0, 0.4) for k, v in params.tensors().items()}
    params = replace(params, **tensors)
    x = rng.uniform((batch, t_len, n_in), -1.0, 1.0)
    targets = rng.uniform((batch, n_out), -1.0, 1.0)
    return params, x, targets


def _draw_rnn(cell: str, rng: Rng):
    """A small random instance of one cell's loss, as (loss, params, analytic gradient)."""
    params, x, targets = _random_instance(cell, rng)
    if cell == "relu_identity":
        # redraw while any pre-activation sits on the relu kink
        attempts = 0
        while (np.abs(rnn.rnn_forward(params, x).pre) < _RELU_KINK_GUARD).any():
            params, x, targets = _random_instance(cell, rng)
            attempts += 1
            if attempts > 200:
                raise RuntimeError("could not draw a kink-free relu instance")
    return (lambda t: rnn.loss_mse(rnn.rnn_forward(replace(params, **t), x).outputs, targets),
            params.tensors(), rnn.bptt_gradients(params, (x, targets)))


def check(scope: str, trials: int, seed: int, threshold: float = DEFAULT_THRESHOLD) -> float:
    """Max relative error of one scope's analytic gradient vs central differences.

    ``scope`` is "mf" or a cell name; trial i draws its instance from the
    seed derived with the label ``gradcheck/{scope}/{i}``. The error is
    :func:`max_relative_error`'s at ``threshold``.
    """
    worst = 0.0
    for trial in range(trials):
        rng = Rng(derive_seed(seed, f"gradcheck/{scope}/{trial}"))
        loss, params, grads = _draw_mf(rng) if scope == "mf" else _draw_rnn(scope, rng)
        numeric = central_difference(lambda theta: loss(_unpack(params, theta)),
                                     _pack(params, params))
        floor = fd_noise_floor(loss(params))
        worst = max(worst, max_relative_error(_pack(grads, params), numeric, floor, threshold))
    return worst


def run_all(trials: int, seed: int, scopes=None,
            threshold: float = DEFAULT_THRESHOLD) -> dict[str, float]:
    """Run every requested oracle at ``threshold``; returns {scope: max relative error}.

    Scopes are "mf" plus the cell names; None means all of them.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    all_scopes = ("mf",) + rnn.CELLS
    if scopes is None:
        scopes = all_scopes
    for s in scopes:
        if s not in all_scopes:
            raise ConfigError(f"unknown gradcheck scope {s!r}; choose from {all_scopes}")
    if len(set(scopes)) != len(scopes):
        raise ConfigError(f"gradient check names a scope more than once: {list(scopes)}")
    return {s: check(s, trials, seed, threshold) for s in scopes}
