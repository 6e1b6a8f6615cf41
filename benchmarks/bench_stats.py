"""Order statistics used for every reported timing.

Timings are summarised by their median; run-to-run spread is the distance
between the first and third quartile as a share of the median, with the
quartiles taken exactly as ``statistics.quantiles(values, n=4)`` gives
them.
"""

from __future__ import annotations

import statistics


def median(values) -> float:
    """Median of a non-empty sequence of numbers."""
    values = list(values)
    if not values:
        raise ValueError("median of an empty sequence")
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) by ``statistics.quantiles(..., n=4)``.

    A single value is its own quartiles; Python 3.11 would reject it.
    """
    values = list(values)
    if not values:
        raise ValueError("quartiles of an empty sequence")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median (0 for a zero median)."""
    q1, _, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0
