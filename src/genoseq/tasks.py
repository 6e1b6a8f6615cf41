"""Synthetic sequence tasks that stress long-range memory.

Both generators return a :class:`~genoseq.data.SequenceBatch`, the same
container the genotype pipeline produces, so the trainer and the cell
comparison run on them unchanged.
"""

from __future__ import annotations

import numpy as np

from .data import SequenceBatch
from .errors import ConfigError
from .linalg import Rng



def lag_memory_task(n_sequences: int, lag: int, seed: int,
                    lo: float = -1.0, hi: float = 1.0) -> SequenceBatch:
    """Recall-after-silence: the value shown at step 1 is the target at step ``lag``.

    Inputs are width-1 sequences of ``lag`` steps, zero everywhere except
    the first step, which holds a uniform draw from [lo, hi). A model must
    carry that single observation across lag - 1 empty steps.
    """
    if n_sequences < 1 or lag < 1:
        raise ConfigError(f"need n_sequences, lag >= 1, got {n_sequences}, {lag}")
    rng = Rng(seed)
    values = rng.uniform(n_sequences, lo, hi)
    inputs = np.zeros((n_sequences, lag, 1))
    inputs[:, 0, 0] = values
    return SequenceBatch(inputs, values[:, None], lag, 1)


def deep_recall_task(n_sequences: int, length: int, seed: int,
                     lo: float = -2.0, hi: float = 2.0) -> SequenceBatch:
    """Sum of values shown at deep positions only; silence everywhere else.

    Values appear at six depths, the shallowest 8% of the sequence length
    ago and the deepest at the very first step; every other input is
    exactly zero and the target is the sum of the shown values. Nothing
    inside a vanilla cell's few-step reach carries information, so a cell
    reduces the loss exactly as far back as its memory extends: a
    short-memory recurrence cannot leave the mean-prediction plateau, a
    gated cell collects the shallower depths, and an identity-initialized
    relu cell reaches all of them.
    """
    if n_sequences < 1 or length < 5:
        raise ConfigError(f"need n_sequences >= 1 and length >= 5, got {n_sequences}, {length}")
    rng = Rng(seed)
    fractions = (0.08, 0.25, 0.45, 0.65, 0.85, 1.0)
    lags = sorted({min(length - 1, max(1, round(f * length) - 1)) for f in fractions})
    idx = np.array([length - 1 - l for l in lags])
    values = rng.uniform((n_sequences, len(idx)), lo, hi)
    x = np.zeros((n_sequences, length, 1))
    x[:, idx, 0] = values
    targets = values.sum(axis=1)[:, None]
    return SequenceBatch(x, targets, length, 1)


def adding_task(n_sequences: int, length: int, seed: int) -> SequenceBatch:
    """Two-channel adding problem: sum the two marked values.

    Channel 0 carries uniform [0,1) values, channel 1 a marker that is 1
    at exactly two positions, one in each half of the sequence. The target
    is the mean of the two marked values.
    """
    if n_sequences < 1 or length < 2:
        raise ConfigError(f"need n_sequences >= 1 and length >= 2, got {n_sequences}, {length}")
    rng = Rng(seed)
    values = rng.uniform((n_sequences, length))
    half = length // 2
    first = np.floor(rng.uniform(n_sequences, 0, half)).astype(np.int64)
    second = half + np.floor(rng.uniform(n_sequences, 0, length - half)).astype(np.int64)
    inputs = np.zeros((n_sequences, length, 2))
    inputs[:, :, 0] = values
    rows = np.arange(n_sequences)
    inputs[rows, first, 1] = 1.0
    inputs[rows, second, 1] = 1.0
    targets = 0.5 * (values[rows, first] + values[rows, second])
    return SequenceBatch(inputs, targets[:, None], length, 2)


TASKS = {"lag": lag_memory_task, "deep": deep_recall_task, "adding": adding_task}


def make_task(name: str, n_sequences: int, length: int, seed: int) -> SequenceBatch:
    if name not in TASKS:
        raise ConfigError(f"unknown task {name!r}; choose from {tuple(TASKS)}")
    return TASKS[name](n_sequences, length, seed)
