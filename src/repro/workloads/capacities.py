"""Node storage-capacity distributions.

PAST nodes advertise widely differing capacities (desktop disks vs
dedicated servers).  The SOSP'01 evaluation draws node capacities from a
truncated normal distribution and discards outliers beyond a bounded
ratio of the mean -- extreme mismatches between one node's capacity and
its leaf set's would defeat local (leaf-set-scoped) load balancing.  Both
that generator and a plain uniform one are provided.
"""

from __future__ import annotations

import random
from typing import Callable

CapacityFn = Callable[[random.Random], int]


def bounded_normal_capacities(
    mean: int, stddev_fraction: float = 0.4, min_ratio: float = 0.25, max_ratio: float = 4.0
) -> CapacityFn:
    """Normal capacities truncated to [min_ratio, max_ratio] x mean.

    Re-draws until the sample falls inside the bounds, mirroring the
    companion paper's policy of refusing nodes whose advertised capacity
    is wildly out of line with the rest of the network.
    """
    if mean < 1:
        raise ValueError("mean must be >= 1 byte")
    if stddev_fraction < 0:
        raise ValueError("stddev_fraction must be non-negative")
    if not 0 < min_ratio <= 1 <= max_ratio:
        raise ValueError("need 0 < min_ratio <= 1 <= max_ratio")

    def draw(rng: random.Random) -> int:
        low = mean * min_ratio
        high = mean * max_ratio
        while True:
            value = rng.gauss(mean, mean * stddev_fraction)
            if low <= value <= high:
                return int(value)

    return draw
