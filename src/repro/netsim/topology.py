"""Synthetic network topologies with a scalar proximity metric.

A topology assigns each endpoint (keyed by an opaque address, here an int)
a position, and answers ``distance(a, b)``.  Pastry uses the metric in two
places: choosing among candidate routing-table entries (prefer the
proximally closest) and evaluating locality (route stretch, nearest-replica
hit rate).
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Tuple

from repro.netsim.index import (
    GridProximityIndex,
    LinearProximityIndex,
    ProximityIndex,
)


class Topology(ABC):
    """Abstract topology: endpoints with pairwise scalar distances."""

    @abstractmethod
    def add_endpoint(self, address: int) -> None:
        """Register a new endpoint and assign it a position."""

    @abstractmethod
    def distance(self, a: int, b: int) -> float:
        """Scalar proximity between two registered endpoints.

        Must be symmetric and zero iff ``a == b`` (for distinct positions).
        """

    @abstractmethod
    def remove_endpoint(self, address: int) -> None:
        """Forget an endpoint (a node that left the network)."""

    def path_distance(self, hops: List[int]) -> float:
        """Total distance along a sequence of endpoint addresses."""
        return sum(self.distance(a, b) for a, b in zip(hops, hops[1:]))

    def unary_distance(self, origin: int) -> Callable[[int], float]:
        """A one-argument ``distance(other)`` with *origin* fixed.

        The oracle build evaluates millions of distances from the same
        origin in a row; topologies with per-endpoint positions override
        this to hoist the origin's coordinates out of the inner loop.
        The default simply binds :meth:`distance`.
        """
        full_distance = self.distance
        return lambda other: full_distance(origin, other)

    def batch_distance(self, origin: int) -> Callable[[List[int]], List[float]]:
        """A ``distances(others) -> [float]`` evaluator with *origin* fixed.

        The oracle's table fill ranks whole candidate pools at once; a
        batch evaluator lets topologies run the pool in one comprehension
        instead of one closure call per candidate.  The default wraps
        :meth:`unary_distance`.
        """
        unary = self.unary_distance(origin)
        return lambda others: [unary(other) for other in others]

    def make_index(self) -> ProximityIndex:
        """A fresh, empty :class:`~repro.netsim.index.ProximityIndex`
        suited to this topology's geometry.

        The caller owns the membership: it adds/discards endpoints as
        its own notion of "eligible" changes (e.g. the overlay tracks
        live nodes only).  Metric topologies with exploitable structure
        override this to return a sublinear index; the default is the
        linear-scan fallback, which is correct for any topology.
        """
        return LinearProximityIndex(self)

    def endpoint_index(self) -> Optional[ProximityIndex]:
        """An index over *all* currently registered endpoints, kept in
        sync automatically -- or None when the topology does not maintain
        one.  Query helpers (:func:`repro.netsim.proximity.nearest`)
        delegate to it when present.
        """
        return None


class EuclideanPlaneTopology(Topology):
    """Endpoints are uniform random points in a [0, side) x [0, side) square.

    This is the simplest geographic-distance model and the one used for
    the locality experiments (E5, E6): distances satisfy the triangle
    inequality exactly, so route stretch is well defined.
    """

    def __init__(self, rng: random.Random, side: float = 1000.0) -> None:
        if side <= 0:
            raise ValueError("side must be positive")
        self._rng = rng
        self.side = side
        self._points: Dict[int, Tuple[float, float]] = {}
        self._endpoint_index: Optional[GridProximityIndex] = None

    def add_endpoint(self, address: int) -> None:
        if address in self._points:
            raise ValueError(f"endpoint {address} already registered")
        self._points[address] = (
            self._rng.uniform(0.0, self.side),
            self._rng.uniform(0.0, self.side),
        )
        if self._endpoint_index is not None:
            self._endpoint_index.add(address)

    def remove_endpoint(self, address: int) -> None:
        if address in self._points and self._endpoint_index is not None:
            self._endpoint_index.discard(address)
        self._points.pop(address, None)

    def position(self, address: int) -> Tuple[float, float]:
        return self._points[address]

    def distance(self, a: int, b: int) -> float:
        xa, ya = self._points[a]
        xb, yb = self._points[b]
        return math.hypot(xa - xb, ya - yb)

    def unary_distance(self, origin: int) -> Callable[[int], float]:
        points = self._points
        ox, oy = points[origin]
        hypot = math.hypot

        def from_origin(other: int) -> float:
            x, y = points[other]
            return hypot(x - ox, y - oy)

        return from_origin

    def batch_distance(self, origin: int) -> Callable[[List[int]], List[float]]:
        points = self._points
        ox, oy = points[origin]
        hypot = math.hypot
        get = points.__getitem__

        def distances(others: List[int]) -> List[float]:
            return [hypot(p[0] - ox, p[1] - oy) for p in map(get, others)]

        return distances

    def make_index(self) -> ProximityIndex:
        return GridProximityIndex(self)

    def endpoint_index(self) -> ProximityIndex:
        """Lazily built grid over every registered endpoint; kept in sync
        by ``add_endpoint`` / ``remove_endpoint`` once created."""
        if self._endpoint_index is None:
            index = GridProximityIndex(self)
            for address in self._points:
                index.add(address)
            self._endpoint_index = index
        return self._endpoint_index

    def __len__(self) -> int:
        return len(self._points)


class RandomGraphTopology(Topology):
    """An IP-hop-like metric: shortest-path hop count in a random graph.

    Endpoints attach to routers of a fixed random ``k``-neighbour router
    core; distance between endpoints is the hop distance between their
    routers (+2 access hops).  Distances are computed on demand with a
    BFS per source router and memoised.
    """

    def __init__(
        self,
        rng: random.Random,
        routers: int = 200,
        degree: int = 4,
    ) -> None:
        if routers < 2:
            raise ValueError("need at least 2 routers")
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self._rng = rng
        self.router_count = routers
        self._adjacency: List[List[int]] = [[] for _ in range(routers)]
        self._build_router_core(degree)
        self._attachment: Dict[int, int] = {}
        self._bfs_cache: Dict[int, List[int]] = {}

    def _build_router_core(self, degree: int) -> None:
        # Ring + random chords: guarantees connectivity, approximates a
        # small-world AS graph.
        for i in range(self.router_count):
            self._connect(i, (i + 1) % self.router_count)
        for i in range(self.router_count):
            for _ in range(degree - 2):
                j = self._rng.randrange(self.router_count)
                if j != i:
                    self._connect(i, j)

    def _connect(self, a: int, b: int) -> None:
        if b not in self._adjacency[a]:
            self._adjacency[a].append(b)
        if a not in self._adjacency[b]:
            self._adjacency[b].append(a)

    def add_endpoint(self, address: int) -> None:
        if address in self._attachment:
            raise ValueError(f"endpoint {address} already registered")
        self._attachment[address] = self._rng.randrange(self.router_count)

    def remove_endpoint(self, address: int) -> None:
        self._attachment.pop(address, None)

    def _hops_from(self, router: int) -> List[int]:
        cached = self._bfs_cache.get(router)
        if cached is not None:
            return cached
        dist = [-1] * self.router_count
        dist[router] = 0
        frontier = [router]
        while frontier:
            next_frontier = []
            for u in frontier:
                for v in self._adjacency[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        next_frontier.append(v)
            frontier = next_frontier
        self._bfs_cache[router] = dist
        return dist

    def distance(self, a: int, b: int) -> float:
        ra = self._attachment[a]
        rb = self._attachment[b]
        if a == b:
            return 0.0
        if ra == rb:
            return 2.0  # both access links through the same router
        return float(self._hops_from(ra)[rb] + 2)

    def __len__(self) -> int:
        return len(self._attachment)
