"""Node churn schedules.

PAST nodes "may join the system at any time and may silently leave the
system without warning" (abstract).  The churn experiments drive the
overlay with schedules of arrival and departure events; this module
generates them as Poisson processes so inter-event times are memoryless,
the standard churn model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

ARRIVAL = "arrival"
DEPARTURE = "departure"


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change at a point in simulated time."""

    time: float
    kind: str  # ARRIVAL or DEPARTURE

    def __post_init__(self) -> None:
        if self.kind not in (ARRIVAL, DEPARTURE):
            raise ValueError(f"unknown churn event kind: {self.kind!r}")
        if self.time < 0:
            raise ValueError("event time must be non-negative")


def poisson_churn_schedule(
    rng: random.Random,
    duration: float,
    arrival_rate: float,
    departure_rate: float,
) -> List[ChurnEvent]:
    """Independent Poisson arrival and departure processes over
    [0, duration); returns events sorted by time.

    Rates are events per unit time.  Equal rates keep the expected
    network size constant; unequal rates grow or shrink it.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if arrival_rate < 0 or departure_rate < 0:
        raise ValueError("rates must be non-negative")
    events: List[ChurnEvent] = []
    for rate, kind in ((arrival_rate, ARRIVAL), (departure_rate, DEPARTURE)):
        if rate == 0:
            continue
        t = rng.expovariate(rate)
        while t < duration:
            events.append(ChurnEvent(time=t, kind=kind))
            t += rng.expovariate(rate)
    events.sort(key=lambda e: e.time)
    return events
