"""Statistics helpers for experiment reporting.

Plain-Python implementations (no numpy dependency in the core library)
of the handful of statistics the benchmarks report.
"""

from __future__ import annotations

import math
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    return sum(values) / len(values) if values else 0.0


def variance(values: Sequence[float]) -> float:
    """Unbiased sample variance; 0.0 for fewer than two samples."""
    n = len(values)
    if n < 2:
        return 0.0
    m = mean(values)
    return sum((v - m) ** 2 for v in values) / (n - 1)


def stddev(values: Sequence[float]) -> float:
    """Sample standard deviation."""
    return math.sqrt(variance(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Exact percentile with linear interpolation; q in [0, 100]."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[int(rank)]
    weight = rank - low
    return ordered[low] + weight * (ordered[high] - ordered[low])


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Stddev over mean -- the dispersion measure for load balance (E11)."""
    m = mean(values)
    if m == 0:
        return 0.0
    return stddev(values) / m
