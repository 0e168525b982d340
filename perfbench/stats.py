"""Order statistics shared by the runner and the spread script."""

from __future__ import annotations

import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of an empty sequence")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile.

    Uses ``statistics.quantiles(values, n=4)`` (the exclusive method), which
    needs at least two values; a single value is its own three quartiles.
    """
    if not values:
        raise ValueError("quartiles of an empty sequence")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)
