"""Deterministic, seeded fault plans.

A :class:`FaultPlan` is the single source of chaos for one run: every
fault it injects -- message drops, delays, duplicates, reorders, node
crashes/restarts, and the coordinated leaf-set-adjacent failures that
probe claim C6's boundary -- is drawn from named RNG streams under one
seed (:mod:`repro.sim.rng`), so two runs with the same seed inject
byte-identical chaos.

The plan is *consumed* by the layers it torments rather than driving
them itself:

* the live :class:`~repro.live.transport.InProcessTransport` asks
  :meth:`FaultPlan.message_fault` before delivering each message;
* the churn simulation (:mod:`repro.core.churn_sim`) applies the plan's
  scheduled :class:`FaultEvent` list against the Pastry network and its
  failure-detection machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.rng import RngRegistry, stable_seed

# Node-level fault kinds (the FaultEvent schedule); the churn simulation
# applies every one of them.
CRASH = "crash"
RESTART = "restart"
ADJACENT_FAILURE = "adjacent-failure"

EVENT_KINDS = (CRASH, RESTART, ADJACENT_FAILURE)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled node-level fault.

    *target* of None means "pick a victim at apply time" from the plan's
    ``targets`` stream -- the plan stays valid for any network size.  For
    :data:`ADJACENT_FAILURE`, *count* nodes with adjacent nodeIds fail
    simultaneously around a key drawn at apply time (the C6 precondition
    holds exactly when ``count >= floor(l/2)``).
    """

    time: float
    kind: str
    target: Optional[int] = None
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        if self.time < 0:
            raise ValueError("fault time must be non-negative")
        if self.count < 1:
            raise ValueError("fault count must be >= 1")


@dataclass(frozen=True)
class MessageFault:
    """The fate of one message, as decided by the plan."""

    drop: bool = False
    duplicate: bool = False
    delay: float = 0.0  # extra one-way delay, latency-model units
    defer: float = 0.0  # reorder: deliver this much later, without
    #                     blocking the sender (overtakes happen)


class FaultPlan:
    """Seeded fault schedule plus per-message fault decisions."""

    def __init__(
        self,
        seed: int = 0,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        reorder_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_range: Tuple[float, float] = (0.5, 2.0),
        events: Sequence[FaultEvent] = (),
    ) -> None:
        for name, rate in (
            ("drop_rate", drop_rate),
            ("duplicate_rate", duplicate_rate),
            ("reorder_rate", reorder_rate),
            ("delay_rate", delay_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if delay_range[0] < 0 or delay_range[1] < delay_range[0]:
            raise ValueError("delay_range must be a non-negative (lo, hi)")
        self.seed = int(seed)
        self.rngs = RngRegistry(stable_seed("fault-plan", seed))
        self.drop_rate = drop_rate
        self.duplicate_rate = duplicate_rate
        self.reorder_rate = reorder_rate
        self.delay_rate = delay_rate
        self.delay_range = delay_range
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.time, e.kind, e.target or 0, e.count))
        )
        # Tallies of what actually fired (inspection / chaos report).
        self.injected: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    def count(self, kind: str, amount: int = 1) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + amount

    # ------------------------------------------------------------------ #
    # message-level faults
    # ------------------------------------------------------------------ #

    def message_fault(self, sender: int, destination: int) -> Optional[MessageFault]:
        """Decide this message's fate; None means deliver untouched.

        Draws come from the plan's ``messages`` stream, so a run that
        replays the same message sequence sees the same faults.
        """
        rng = self.rngs.stream("messages")
        drop = self.drop_rate > 0 and rng.random() < self.drop_rate
        if drop:
            self.count("message-drop")
            return MessageFault(drop=True)
        duplicate = self.duplicate_rate > 0 and rng.random() < self.duplicate_rate
        delay = 0.0
        if self.delay_rate > 0 and rng.random() < self.delay_rate:
            delay = rng.uniform(*self.delay_range)
        defer = 0.0
        if self.reorder_rate > 0 and rng.random() < self.reorder_rate:
            defer = rng.uniform(*self.delay_range)
        if not (duplicate or delay > 0 or defer > 0):
            return None
        if duplicate:
            self.count("message-duplicate")
        if delay > 0:
            self.count("message-delay")
        if defer > 0:
            self.count("message-reorder")
        return MessageFault(duplicate=duplicate, delay=delay, defer=defer)

    # ------------------------------------------------------------------ #
    # apply-time target selection
    # ------------------------------------------------------------------ #

    def pick_target(self, candidates: Sequence[int]) -> Optional[int]:
        """Deterministically pick one victim among *candidates*."""
        if not candidates:
            return None
        rng = self.rngs.stream("targets")
        return candidates[rng.randrange(len(candidates))]

    def pick_anchor(self, id_bits: int) -> int:
        """A key around which an adjacent-failure group is centred."""
        return self.rngs.stream("targets").getrandbits(id_bits)

    def describe(self) -> dict:
        """Deterministic summary of the plan's configuration."""
        return {
            "seed": self.seed,
            "drop_rate": self.drop_rate,
            "duplicate_rate": self.duplicate_rate,
            "reorder_rate": self.reorder_rate,
            "delay_rate": self.delay_rate,
            "events": [
                {"time": e.time, "kind": e.kind, "target": e.target, "count": e.count}
                for e in self.events
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(seed={self.seed}, events={len(self.events)}, "
            f"drop={self.drop_rate}, injected={sum(self.injected.values())})"
        )


def build_schedule(
    seed: int,
    duration: float,
    half_leaf: int,
    crashes: int = 4,
    restarts: int = 2,
    adjacent_boundary: int = 1,
    adjacent_safe: int = 1,
) -> List[FaultEvent]:
    """A deterministic chaos schedule spread over *duration*.

    Includes *adjacent_boundary* coordinated failures of exactly
    ``half_leaf`` adjacent nodeIds (the C6 boundary: loss is permitted)
    and *adjacent_safe* of ``half_leaf - 1`` (the complement: delivery
    must survive).  Crash and restart events fill in around them.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if half_leaf < 2:
        raise ValueError("half_leaf must be >= 2 for a meaningful boundary")
    rng = RngRegistry(stable_seed("fault-schedule", seed)).stream("times")
    events: List[FaultEvent] = []

    def when() -> float:
        # Keep clear of t=0 (build) and the very end (final checks).
        return round(rng.uniform(0.05, 0.9) * duration, 3)

    for _ in range(crashes):
        events.append(FaultEvent(time=when(), kind=CRASH))
    for _ in range(restarts):
        events.append(FaultEvent(time=when(), kind=RESTART))
    for _ in range(adjacent_boundary):
        events.append(FaultEvent(time=when(), kind=ADJACENT_FAILURE, count=half_leaf))
    for _ in range(adjacent_safe):
        events.append(
            FaultEvent(time=when(), kind=ADJACENT_FAILURE, count=half_leaf - 1)
        )
    events.sort(key=lambda e: (e.time, e.kind, e.count))
    return events
