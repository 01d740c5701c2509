"""Latency models mapping proximity to message delay.

The discrete-event protocols (keep-alives, failure detection) need a delay
per message.  The models here turn the topology's scalar proximity into a
latency, optionally with jitter, so that experiments can study timeout
tuning without hard-coding delay constants throughout the protocol code.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Optional

from repro.netsim.topology import Topology


class LatencyModel(ABC):
    """Maps an (origin, destination) endpoint pair to a one-way delay."""

    @abstractmethod
    def delay(self, origin: int, destination: int) -> float:
        """One-way message delay in simulated time units."""


class UniformLatency(LatencyModel):
    """Every message takes the same fixed delay (plus optional jitter).

    Useful as a control: it removes proximity effects entirely, which is
    how we isolate the contribution of locality-aware table construction.
    """

    def __init__(self, base: float = 1.0, jitter: float = 0.0,
                 rng: Optional[random.Random] = None) -> None:
        if base <= 0:
            raise ValueError("base delay must be positive")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        if jitter > 0 and rng is None:
            raise ValueError("jitter requires an rng")
        self.base = base
        self.jitter = jitter
        self._rng = rng

    def delay(self, origin: int, destination: int) -> float:
        if origin == destination:
            return 0.0
        if self.jitter > 0 and self._rng is not None:
            return self.base + self._rng.uniform(0.0, self.jitter)
        return self.base


class ProximityLatency(LatencyModel):
    """Delay proportional to the topology's proximity metric.

    ``delay = fixed + scale * distance(origin, destination)``, modelling a
    per-hop processing cost plus propagation proportional to distance.
    """

    def __init__(self, topology: Topology, scale: float = 0.01, fixed: float = 0.5) -> None:
        if scale < 0 or fixed < 0:
            raise ValueError("scale and fixed must be non-negative")
        if scale == 0 and fixed == 0:
            raise ValueError("delay model would always return zero")
        self.topology = topology
        self.scale = scale
        self.fixed = fixed

    def delay(self, origin: int, destination: int) -> float:
        if origin == destination:
            return 0.0
        return self.fixed + self.scale * self.topology.distance(origin, destination)
