"""Seeded random streams, seed derivation, the Frobenius norm, the logistic function.

A "matrix" throughout this package is a 2-D, C-contiguous ``numpy.ndarray``
of float64. Matrices are treated as immutable values: public operations
return fresh arrays and never mutate their arguments, so results are safe
to share across threads.

Randomness comes from :class:`Rng`, a counter-mode SplitMix64 generator.
The i-th raw output is a pure function of (seed, i), so every draw is
reproducible bit-for-bit across platforms and numpy versions, and repeated
calls with the same seed replay the same stream.
"""

from __future__ import annotations

import numpy as np

Matrix = np.ndarray

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: avalanche a uint64 array in place-free style."""
    z = z ^ (z >> np.uint64(30))
    z = z * _MIX1
    z = z ^ (z >> np.uint64(27))
    z = z * _MIX2
    return z ^ (z >> np.uint64(31))


class Rng:
    """Counter-mode SplitMix64 generator.

    Raw output i is ``mix64(seed + (i + 1) * GOLDEN)`` with uint64
    wrap-around, where GOLDEN is the 64-bit golden-ratio constant and
    mix64 the SplitMix64 finalizer. The counter advances monotonically,
    so a single Rng instance yields one fixed stream and two instances
    with the same seed yield identical streams.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(int(seed) & _U64_MASK)
        self._counter = 0

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 outputs."""
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _mix64(self._seed + idx * _GOLDEN)

    def uniform(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """Uniform float64 draws on [lo, hi) using the top 53 bits per output."""
        n = int(np.prod(shape)) if not np.isscalar(shape) else int(shape)
        u = (self.raw(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        out = lo + (hi - lo) * u
        return out.reshape(shape) if not np.isscalar(shape) else out

    def gaussian(self, shape, mean: float = 0.0, stddev: float = 1.0) -> np.ndarray:
        """Gaussian draws via Box-Muller on consecutive uniform pairs."""
        n = int(np.prod(shape)) if not np.isscalar(shape) else int(shape)
        pairs = (n + 1) // 2
        raw = self.raw(2 * pairs)
        # u1 in (0, 1] keeps the log finite; u2 in [0, 1).
        u1 = ((raw[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = (raw[pairs:] >> np.uint64(11)).astype(np.float64) * _INV_2_53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        out = mean + stddev * z[:n]
        return out.reshape(shape) if not np.isscalar(shape) else out

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) by sorting random keys."""
        return np.argsort(self.uniform(n), kind="stable")

    def randint(self, lo: int, hi: int) -> int:
        """One integer uniform on [lo, hi)."""
        return lo + int(self.raw(1)[0] % np.uint64(hi - lo))


def derive_seed(seed: int, label: str) -> int:
    """Derive a stage seed from a master seed and a stage name.

    The label is folded with 64-bit FNV-1a and mixed into the seed through
    the SplitMix64 finalizer, so each (seed, label) pair maps to a stable
    sub-seed that does not shift when unrelated configuration changes.
    """
    h = 0xCBF29CE484222325
    for b in label.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _U64_MASK
    mixed = _mix64(np.array([(int(seed) & _U64_MASK) ^ h], dtype=np.uint64))
    return int(mixed[0])


def frobenius_sq(a: Matrix) -> float:
    """Sum of squared entries (the squared Frobenius norm)."""
    return float(np.sum(a * a))


def sigmoid(a: Matrix) -> Matrix:
    """Numerically stable logistic function."""
    z = np.asarray(a, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
