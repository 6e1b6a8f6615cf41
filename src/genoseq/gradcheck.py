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

import numpy as np

from . import mf, rnn
from .data import GenotypeMatrix
from .errors import ConfigError
from .linalg import Rng, derive_seed

DEFAULT_THRESHOLD = 1e-5
_RELU_KINK_GUARD = 1e-3


def central_difference(f, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Numeric gradient of scalar f at theta, one coordinate at a time."""
    grad = np.empty_like(theta)
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = h
        grad[i] = (f(theta + bump) - f(theta - bump)) / (2.0 * h)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray,
                       min_magnitude: float = 1e-8, noise_floor: float = 0.0) -> float:
    """Largest |a - n| / max(|a|, |n|) over components above the magnitude floor.

    ``noise_floor`` is the absolute resolution of the numeric oracle
    itself (roundoff in f(x+h) - f(x-h) divided by 2h). Discrepancies
    below it cannot be attributed to the analytic gradient and are not
    counted; any genuine gradient bug sits orders of magnitude above it.
    """
    a = np.asarray(analytic).reshape(-1)
    n = np.asarray(numeric).reshape(-1)
    diff = np.abs(a - n)
    scale = np.maximum(np.abs(a), np.abs(n))
    keep = (scale > min_magnitude) & (diff > noise_floor)
    if not keep.any():
        return 0.0
    return float(np.max(diff[keep] / scale[keep]))


def fd_noise_floor(f_magnitude: float, h: float) -> float:
    """Roundoff resolution of a central difference on a float64 function."""
    eps = np.finfo(np.float64).eps
    return 64.0 * eps * max(abs(f_magnitude), 0.1) / (2.0 * h)


def check_mf(trials: int, seed: int, h: float = 1e-5) -> float:
    """Max relative error of mf_gradients vs central differences.

    Each trial draws a small random instance (samples, snps <= 8,
    features <= 3, ~20% unobserved cells) and checks the gradient of the
    regularized objective with respect to both factors.
    """
    worst = 0.0
    for trial in range(trials):
        rng = Rng(derive_seed(seed, f"gradcheck/mf/{trial}"))
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
        numeric = central_difference(objective, theta0, h)
        dp, dq = mf.mf_gradients(g, mf.FactorPair(p0, q0), beta)
        analytic = np.concatenate([dp.reshape(-1), dq.reshape(-1)])
        floor = fd_noise_floor(objective(theta0), h)
        worst = max(worst, max_relative_error(analytic, numeric, noise_floor=floor))
    return worst


def _pack(tensors: dict[str, np.ndarray]) -> np.ndarray:
    """Parameters or gradients as one vector, in the order _unpack reads them."""
    return np.concatenate([tensors[k].reshape(-1) for k in ("w_ih", "w_hh", "w_ho", "b_h", "b_o")])


def _unpack(params: rnn.RnnParams, theta: np.ndarray) -> rnn.RnnParams:
    tensors = {}
    offset = 0
    for name, value in params.tensors().items():
        tensors[name] = theta[offset:offset + value.size].reshape(value.shape)
        offset += value.size
    return params.replace_tensors(tensors)


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
    params = params.replace_tensors(tensors)
    x = rng.uniform((batch, t_len, n_in), -1.0, 1.0)
    targets = rng.uniform((batch, n_out), -1.0, 1.0)
    return params, x, targets


def check_rnn(cell: str, trials: int, seed: int, h: float = 1e-5) -> float:
    """Max relative error of bptt_gradients vs central differences for one cell."""
    worst = 0.0
    for trial in range(trials):
        rng = Rng(derive_seed(seed, f"gradcheck/{cell}/{trial}"))
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

        theta0 = _pack(params.tensors())
        numeric = central_difference(loss_at, theta0, h)
        analytic = _pack(rnn.bptt_gradients(params, (x, targets)))
        floor = fd_noise_floor(loss_at(theta0), h)
        worst = max(worst, max_relative_error(analytic, numeric, noise_floor=floor))
    return worst


def run_all(trials: int, seed: int, scopes=None, h: float = 1e-5) -> dict[str, float]:
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
    results = {}
    for s in scopes:
        if s == "mf":
            results[s] = check_mf(trials, seed, h)
        else:
            results[s] = check_rnn(s, trials, seed, h)
    return results
