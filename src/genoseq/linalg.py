"""Random streams, seed derivation, workspace buffers, the logistic function.

A "matrix" throughout this package is a 2-D, C-contiguous ``numpy.ndarray``
of float64. Public operations never mutate their arguments; they return
fresh arrays unless the caller passes an ``out`` buffer or a ``workspace``
dict (see :func:`buffer`) to write into.

Randomness comes from :class:`Rng`, a counter-mode SplitMix64 generator.
The i-th raw output is a pure function of (seed, i), so every draw is
reproducible bit-for-bit across platforms and numpy versions, and repeated
calls with the same seed replay the same stream. Draws are made
``_BLOCK`` outputs at a time, so a draw holds its result and O(block) more.
"""

from __future__ import annotations

import math

import numpy as np

Matrix = np.ndarray

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53
_BLOCK = 1 << 15  # outputs per block: its uint64 temporaries (256 KiB each) stay in cache


def check_alloc(count: int) -> int:
    """``count``, or a MemoryError if no numpy array can hold ``count`` 8-byte values."""
    if count * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"cannot allocate {count} 8-byte values")
    return count


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: avalanche the uint64 array ``z`` in place, and return it."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


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
        z = np.arange(self._counter + 1, self._counter + check_alloc(n) + 1, dtype=np.uint64)
        self._counter += n
        z *= _GOLDEN
        z += self._seed
        return _mix64(z)

    def uniform(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """Uniform float64 draws on [lo, hi) using the top 53 bits per output."""
        out = np.empty(check_alloc(math.prod(map(int, np.atleast_1d(shape)))))
        for start in range(0, out.size, _BLOCK):
            block = out[start:start + _BLOCK]
            block[...] = self.raw(block.size) >> np.uint64(11)
            block *= _INV_2_53
            block *= hi - lo
            block += lo
        return out.reshape(shape)

    def gaussian(self, shape, mean: float = 0.0, stddev: float = 1.0) -> np.ndarray:
        """Gaussian draws via Box-Muller, pairing the first half of the uniforms with the second."""
        n = check_alloc(math.prod(map(int, np.atleast_1d(shape))))
        pairs = (n + 1) // 2
        u1 = self.uniform(pairs) + _INV_2_53  # (k + 1) * 2^-53, exact: in (0, 1], a finite log
        u2 = self.uniform(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return (mean + stddev * z[:n]).reshape(shape)

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


def buffer(workspace: dict, name: str, shape: tuple) -> Matrix:
    """``workspace[name]``, replaced by an uninitialized array when missing or not of ``shape``."""
    if name not in workspace or workspace[name].shape != shape:
        workspace[name] = np.empty(shape)
    return workspace[name]


def sigmoid(a: Matrix, out: Matrix | None = None) -> Matrix:
    """Logistic function, as 0.5 * tanh(0.5 * a) + 0.5.

    tanh saturates to exactly +-1 instead of overflowing, so the result is
    exactly 0 or 1 far out on either side, with no masks and no exp. With
    ``out``, the result is written there.
    """
    out = np.multiply(a, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out
