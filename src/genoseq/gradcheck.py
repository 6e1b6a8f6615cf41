"""Finite-difference oracles for the analytic gradients.

Central differences with step h perturb one parameter at a time; the
resulting numeric gradient is compared against the analytic one by
max relative error over components whose magnitude clears a floor
(tiny components are dominated by roundoff and say nothing useful).

For relu cells, instances whose pre-activations sit within a guard band
of the kink are re-drawn: the derivative is discontinuous there and a
finite difference straddling it is meaningless.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import mf, rnn
from .data import GenotypeMatrix
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


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, noise_floor: float) -> float:
    """Largest |a - n| / max(|a|, |n|) over components of magnitude above 1e-8.

    ``noise_floor`` is the absolute resolution of the numeric oracle
    itself (roundoff in f(x+h) - f(x-h) divided by 2h). Discrepancies
    below it cannot be attributed to the analytic gradient and are not
    counted; any genuine gradient bug sits orders of magnitude above it.
    A NaN or infinite component on either side is an error of inf.
    """
    a = np.asarray(analytic).reshape(-1)
    n = np.asarray(numeric).reshape(-1)
    if not (np.isfinite(a).all() and np.isfinite(n).all()):
        return float("inf")
    diff = np.abs(a - n)
    scale = np.maximum(np.abs(a), np.abs(n))
    keep = (scale > 1e-8) & (diff > noise_floor)
    if not keep.any():
        return 0.0
    return float(np.max(diff[keep] / scale[keep]))


def fd_noise_floor(f_magnitude: float) -> float:
    """Roundoff resolution of a central difference on a float64 function."""
    eps = np.finfo(np.float64).eps
    return 64.0 * eps * max(abs(f_magnitude), 0.1) / (2.0 * _STEP)


def _draw_mf(rng: Rng):
    """A random factorization objective of both factors: (objective, theta0, analytic gradient).

    Samples and snps are <= 8, features <= 3 and ~20% of the cells are unobserved.
    """
    u = rng.randint(2, 9)
    v = rng.randint(2, 9)
    f_lat = rng.randint(1, 4)
    codes = np.floor(rng.uniform((u, v), 0, 3)).astype(np.int16)
    observed = rng.uniform((u, v)) > 0.2
    if not observed.any():
        observed[0, 0] = True
    g = GenotypeMatrix(codes, observed)
    beta = float(rng.uniform(1, 0.0, 0.1)[0])
    p0 = rng.uniform((u, f_lat), -1.0, 1.0)
    q0 = rng.uniform((v, f_lat), -1.0, 1.0)

    def objective(theta):
        p = theta[:u * f_lat].reshape(u, f_lat)
        q = theta[u * f_lat:].reshape(v, f_lat)
        return mf.mf_cost(g, mf.FactorPair(p, q), beta)[1]

    theta0 = np.concatenate([p0.reshape(-1), q0.reshape(-1)])
    dp, dq = mf.mf_gradients(g, mf.FactorPair(p0, q0), beta)
    return objective, theta0, np.concatenate([dp.reshape(-1), dq.reshape(-1)])


def _pack(tensors: dict[str, np.ndarray]) -> np.ndarray:
    """Parameters or gradients as one vector, in the order _unpack reads them."""
    return np.concatenate([tensors[k].reshape(-1) for k in rnn.TENSORS])


def _unpack(params: rnn.RnnParams, theta: np.ndarray) -> rnn.RnnParams:
    tensors = {}
    offset = 0
    for name, value in params.tensors().items():
        tensors[name] = theta[offset:offset + value.size].reshape(value.shape)
        offset += value.size
    return replace(params, **tensors)


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
    """A small random instance of one cell's loss, as (loss, theta0, analytic gradient)."""
    params, x, targets = _random_instance(cell, rng)
    if cell == "relu_identity":
        # redraw while any pre-activation sits on the relu kink
        attempts = 0
        while (np.abs(rnn.rnn_forward(params, x).pre) < _RELU_KINK_GUARD).any():
            params, x, targets = _random_instance(cell, rng)
            attempts += 1
            if attempts > 200:
                raise RuntimeError("could not draw a kink-free relu instance")

    def loss_at(theta):
        candidate = _unpack(params, theta)
        return rnn.loss_mse(rnn.rnn_forward(candidate, x).outputs, targets)

    return loss_at, _pack(params.tensors()), _pack(rnn.bptt_gradients(params, (x, targets)))


def check(scope: str, trials: int, seed: int) -> float:
    """Max relative error of one scope's analytic gradient vs central differences.

    ``scope`` is "mf" or a cell name; trial i draws its instance from the
    seed derived with the label ``gradcheck/{scope}/{i}``.
    """
    worst = 0.0
    for trial in range(trials):
        rng = Rng(derive_seed(seed, f"gradcheck/{scope}/{trial}"))
        f, theta0, analytic = _draw_mf(rng) if scope == "mf" else _draw_rnn(scope, rng)
        numeric = central_difference(f, theta0)
        floor = fd_noise_floor(f(theta0))
        worst = max(worst, max_relative_error(analytic, numeric, noise_floor=floor))
    return worst


def run_all(trials: int, seed: int, scopes=None) -> dict[str, float]:
    """Run every requested oracle; returns {scope: max relative error}.

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
    return {s: check(s, trials, seed) for s in scopes}
