"""Retry with exponential backoff and jitter.

The live layer's original behaviour was a single ``asyncio.wait_for``
per operation: one lost message stranded the caller until the (10 s)
timeout and then failed outright.  :class:`RetryPolicy` replaces that
with the standard production discipline -- bounded attempts, each with a
per-attempt budget, separated by exponentially growing, jittered sleeps.
Jitter comes from a caller-supplied :mod:`random.Random` (usually a
:class:`~repro.sim.rng.RngRegistry` stream), so a seeded deployment
produces a deterministic backoff sequence -- the property the retry
regression tests pin down.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.obs.trace_context import TraceContext


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt of a retried live operation, as it happened.

    ``span_id`` ties the attempt back to its span in the operation's
    trace (the hop-by-hop record lives there); ``delay`` is the backoff
    slept *before* this attempt; ``randomized``/``reroute_seed`` say
    whether the attempt rerouted via the randomized policy (claim C7)
    and under which derived seed.
    """

    attempt: int
    span_id: str = ""
    delay: float = 0.0
    randomized: bool = False
    reroute_seed: Optional[int] = None

    def describe(self) -> str:
        parts = [f"attempt {self.attempt}"]
        if self.delay > 0:
            parts.append(f"after {self.delay:.3f}s backoff")
        if self.randomized:
            parts.append(f"rerouted (seed {self.reroute_seed})")
        if self.span_id:
            parts.append(f"span {self.span_id}")
        return ", ".join(parts)


@dataclass
class AttemptLog:
    """The attempt history one retried operation accumulates.

    The live layer appends a record per attempt; when the budget is
    exhausted the log rides inside
    :class:`~repro.core.errors.DegradedError`, so a degraded operation
    carries its full history (which trace, which spans, what backoff,
    where it rerouted) instead of just a count.  It keeps each attempt's
    trace context, not its span id: an id is derived only when
    :meth:`as_tuple` renders a history someone will read.
    """

    trace_id: str = ""
    records: List[tuple] = field(default_factory=list)

    def add(
        self,
        attempt: int,
        context: Optional[TraceContext] = None,
        delay: float = 0.0,
        randomized: bool = False,
        reroute_seed: Optional[int] = None,
    ) -> None:
        self.records.append((attempt, context, delay, randomized, reroute_seed))

    def as_tuple(self) -> Tuple[AttemptRecord, ...]:
        return tuple(
            AttemptRecord(attempt, context.span_id if context is not None else "",
                          delay, randomized, reroute_seed)
            for attempt, context, delay, randomized, reroute_seed in self.records
        )

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry: ``attempts`` tries, exponential backoff between.

    ``backoff(n)`` is the sleep before attempt *n+1* (n >= 1):
    ``min(base_delay * factor**(n-1), max_delay)`` plus, when an rng is
    supplied, a uniform jitter of up to ``jitter`` times the raw delay
    (decorrelates retry storms from many concurrent callers).

    Determinism contract (lint rule DET001's concern): this class never
    constructs an RNG of its own.  Jitter happens only when the caller
    passes a seeded ``random.Random``; with ``rng=None`` the sequence is
    the pure exponential schedule, and the process-global ``random``
    module is never consulted either way.
    """

    attempts: int = 4
    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.factor < 1.0:
            raise ValueError("factor below 1 would shrink the backoff")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")

    def backoff(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Sleep before retry number *attempt* (1-based)."""
        if attempt < 1:
            raise ValueError("attempt numbering is 1-based")
        raw = min(self.base_delay * self.factor ** (attempt - 1), self.max_delay)
        if rng is not None and self.jitter > 0:
            raw += rng.uniform(0.0, self.jitter * raw)
        return raw

    def delays(self, rng: Optional[random.Random] = None) -> List[float]:
        """The full backoff sequence (``attempts - 1`` sleeps)."""
        return [self.backoff(n, rng) for n in range(1, self.attempts)]
