"""Spatial proximity indexes over a topology's endpoints.

The simulator's hottest scan is "which registered endpoint is proximally
nearest to X?" -- asked once per arrival during join-mode overlay
construction, which makes ``build(n, method="join")`` quadratic when the
answer comes from a linear sweep.  A :class:`ProximityIndex` maintains a
*membership set* (a subset of the topology's endpoints, e.g. only the
live nodes) and answers ``nearest`` / ``k_nearest`` queries against it.

Two implementations:

* :class:`GridProximityIndex` -- a uniform grid over the plane of a
  :class:`~repro.netsim.topology.EuclideanPlaneTopology`, searched with
  an expanding ring of cells.  Near-constant query cost at the node
  densities the experiments use, and it rebuilds itself at a finer
  resolution as membership grows so cell occupancy stays bounded.
* :class:`LinearProximityIndex` -- the generic fallback for topologies
  with no geometric structure (graphs): a plain scan, but
  behind the same interface so callers never branch.

Both produce *bit-identical* answers: the nearest member under the key
``(distance, address)`` (ties broken towards the smaller address), and
``k_nearest`` ordered by that same key.  The equivalence test suite
asserts this on hundreds of random configurations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Collection, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.topology import EuclideanPlaneTopology, Topology

_EMPTY: frozenset = frozenset()


class ProximityIndex(ABC):
    """A maintained membership set supporting nearest-member queries."""

    @abstractmethod
    def add(self, address: int) -> None:
        """Insert an endpoint into the membership set (idempotent).

        The endpoint must already be registered with the topology."""

    @abstractmethod
    def discard(self, address: int) -> None:
        """Remove an endpoint from the membership set (idempotent)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of members."""

    @abstractmethod
    def __contains__(self, address: int) -> bool:
        """Membership test."""

    @abstractmethod
    def nearest(
        self, origin: int, exclude: Collection[int] = _EMPTY
    ) -> Optional[int]:
        """The member proximally closest to *origin*, or None if the
        membership set (minus *exclude*) is empty.

        Ties are broken towards the smaller address, so the answer is
        deterministic and identical across implementations.  *origin*
        need not itself be a member, but must be a registered endpoint.
        """

    @abstractmethod
    def k_nearest(
        self, origin: int, k: int, exclude: Collection[int] = _EMPTY
    ) -> List[int]:
        """The k members nearest *origin*, ordered by ``(distance,
        address)``.  Returns fewer than k when membership is smaller."""


class LinearProximityIndex(ProximityIndex):
    """Generic fallback: a plain scan over the membership set."""

    def __init__(self, topology: "Topology") -> None:
        self._topology = topology
        self._members: Set[int] = set()

    def add(self, address: int) -> None:
        self._members.add(address)

    def discard(self, address: int) -> None:
        self._members.discard(address)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, address: int) -> bool:
        return address in self._members

    def nearest(
        self, origin: int, exclude: Collection[int] = _EMPTY
    ) -> Optional[int]:
        distance = self._topology.distance
        best: Optional[int] = None
        best_key: Optional[Tuple[float, int]] = None
        for member in self._members:
            if member in exclude:
                continue
            key = (distance(origin, member), member)
            if best_key is None or key < best_key:
                best_key = key
                best = member
        return best

    def k_nearest(
        self, origin: int, k: int, exclude: Collection[int] = _EMPTY
    ) -> List[int]:
        if k < 0:
            raise ValueError("k must be non-negative")
        distance = self._topology.distance
        ranked = sorted(
            (m for m in self._members if m not in exclude),
            key=lambda m: (distance(origin, m), m),
        )
        return ranked[:k]


class GridProximityIndex(ProximityIndex):
    """Uniform-grid index over a Euclidean plane topology.

    Members are bucketed into square cells; a query scans the origin's
    cell and then expanding Chebyshev rings of cells, stopping once no
    unscanned ring can contain a closer point.  Because every point in a
    ring-``r`` cell is *strictly* farther than ``(r-1) * cell_size`` from
    the origin, stopping when the current best distance is ``<=`` that
    bound can never skip a closer member or an equidistant tie-breaker.

    The grid re-buckets itself (doubling the per-axis resolution) when
    mean cell occupancy exceeds ``target_occupancy``, keeping queries
    ~O(occupancy) as membership grows.
    """

    def __init__(
        self,
        topology: "EuclideanPlaneTopology",
        resolution: int = 8,
        target_occupancy: int = 4,
    ) -> None:
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        if target_occupancy < 1:
            raise ValueError("target_occupancy must be >= 1")
        self._topology = topology
        self._side = topology.side
        self._target_occupancy = target_occupancy
        self._resolution = resolution
        self._cell_size = self._side / resolution
        self._members: Dict[int, Tuple[int, int]] = {}  # address -> cell
        self._cells: Dict[Tuple[int, int], List[int]] = {}

    # ------------------------------------------------------------------ #
    # bucketing
    # ------------------------------------------------------------------ #

    def _cell_of(self, x: float, y: float) -> Tuple[int, int]:
        last = self._resolution - 1
        return (
            min(int(x / self._cell_size), last),
            min(int(y / self._cell_size), last),
        )

    def _maybe_grow(self) -> None:
        capacity = self._resolution * self._resolution * self._target_occupancy
        if len(self._members) <= capacity:
            return
        while len(self._members) > self._resolution * self._resolution * self._target_occupancy:
            self._resolution *= 2
        self._cell_size = self._side / self._resolution
        members = list(self._members)
        self._members.clear()
        self._cells.clear()
        position = self._topology.position
        for address in members:
            x, y = position(address)
            cell = self._cell_of(x, y)
            self._members[address] = cell
            self._cells.setdefault(cell, []).append(address)

    def add(self, address: int) -> None:
        if address in self._members:
            return
        x, y = self._topology.position(address)
        cell = self._cell_of(x, y)
        self._members[address] = cell
        self._cells.setdefault(cell, []).append(address)
        self._maybe_grow()

    def discard(self, address: int) -> None:
        cell = self._members.pop(address, None)
        if cell is None:
            return
        bucket = self._cells[cell]
        bucket.remove(address)
        if not bucket:
            del self._cells[cell]

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, address: int) -> bool:
        return address in self._members

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def _ring_cells(self, center: Tuple[int, int], ring: int) -> List[Tuple[int, int]]:
        """Grid cells at Chebyshev distance *ring* from *center* that
        currently hold at least one member."""
        cx, cy = center
        res = self._resolution
        cells = self._cells
        if ring == 0:
            return [(cx, cy)] if (cx, cy) in cells else []
        out: List[Tuple[int, int]] = []
        x_lo, x_hi = cx - ring, cx + ring
        y_lo, y_hi = cy - ring, cy + ring
        for x in range(max(x_lo, 0), min(x_hi, res - 1) + 1):
            if y_lo >= 0 and (x, y_lo) in cells:
                out.append((x, y_lo))
            if y_hi < res and (x, y_hi) in cells:
                out.append((x, y_hi))
        for y in range(max(y_lo + 1, 0), min(y_hi - 1, res - 1) + 1):
            if x_lo >= 0 and (x_lo, y) in cells:
                out.append((x_lo, y))
            if x_hi < res and (x_hi, y) in cells:
                out.append((x_hi, y))
        return out

    def nearest(
        self, origin: int, exclude: Collection[int] = _EMPTY
    ) -> Optional[int]:
        if not self._members:
            return None
        x, y = self._topology.position(origin)
        center = self._cell_of(x, y)
        distance = self._topology.distance
        cell_size = self._cell_size
        best: Optional[int] = None
        best_key: Optional[Tuple[float, int]] = None
        # Every point in a ring-r cell is strictly farther than
        # (r-1)*cell_size, so once best <= that bound we can stop.
        max_ring = self._resolution  # covers the whole grid from any cell
        for ring in range(max_ring + 1):
            if best_key is not None and best_key[0] <= (ring - 1) * cell_size:
                break
            for cell in self._ring_cells(center, ring):
                for member in self._cells[cell]:
                    if member in exclude:
                        continue
                    key = (distance(origin, member), member)
                    if best_key is None or key < best_key:
                        best_key = key
                        best = member
        return best

    def k_nearest(
        self, origin: int, k: int, exclude: Collection[int] = _EMPTY
    ) -> List[int]:
        if k < 0:
            raise ValueError("k must be non-negative")
        if k == 0 or not self._members:
            return []
        x, y = self._topology.position(origin)
        center = self._cell_of(x, y)
        distance = self._topology.distance
        cell_size = self._cell_size
        found: List[Tuple[float, int]] = []
        max_ring = self._resolution
        for ring in range(max_ring + 1):
            if len(found) >= k:
                found.sort()
                found = found[:k]
                # The k-th best so far; unscanned rings are strictly
                # farther than (ring-1)*cell_size, so they cannot improve.
                if found[-1][0] <= (ring - 1) * cell_size:
                    break
            for cell in self._ring_cells(center, ring):
                for member in self._cells[cell]:
                    if member in exclude:
                        continue
                    found.append((distance(origin, member), member))
        found.sort()
        return [member for _, member in found[:k]]
