"""Order statistics the harness reports (no numpy on the hot path)."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = ["percentile", "median", "iqr_share"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample such that at
    least ``q`` percent of the samples are <= it (``q`` in (0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of
    the median — the spread the driver computes over ten runs."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0
