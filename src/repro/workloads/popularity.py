"""Request popularity: Zipf-distributed lookups.

Non-uniform popularity is what makes caching matter (claim C11): a small
set of hot files attracts most lookups, so cached copies near clients
absorb load and shorten routes.  Web and file-sharing request streams are
classically Zipf with exponent near 1.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Sequence, TypeVar

Item = TypeVar("Item")


class ZipfPopularity:
    """Ranks 1..n with P(rank i) proportional to 1/i^s.

    Sampling uses the precomputed CDF and binary search: O(log n) per
    draw, exact (no rejection)."""

    def __init__(self, n: int, exponent: float = 1.0) -> None:
        if n < 1:
            raise ValueError("need at least one rank")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        self.n = n
        self.exponent = exponent
        weights = [1.0 / (i ** exponent) for i in range(1, n + 1)]
        total = sum(weights)
        cumulative: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cumulative.append(acc)
        cumulative[-1] = 1.0  # guard against float drift
        self._cdf = cumulative

    def sample_rank(self, rng: random.Random) -> int:
        """A 1-based rank."""
        return bisect.bisect_left(self._cdf, rng.random()) + 1

    def sample(self, rng: random.Random, items: Sequence[Item]) -> Item:
        """An item drawn by Zipf rank (items[0] is the most popular)."""
        if len(items) != self.n:
            raise ValueError(f"expected {self.n} items, got {len(items)}")
        return items[self.sample_rank(rng) - 1]

    def probability(self, rank: int) -> float:
        """Exact P(rank)."""
        if not 1 <= rank <= self.n:
            raise ValueError("rank out of range")
        lower = self._cdf[rank - 2] if rank >= 2 else 0.0
        return self._cdf[rank - 1] - lower
