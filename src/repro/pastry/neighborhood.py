"""The neighborhood set: proximally nearest nodes.

The neighborhood set M contains the |M| nodes closest to the owner
according to the *proximity* metric (not the nodeId space).  It is not
normally used in routing; its role is locality maintenance -- seeding the
routing tables of arriving nodes (the join protocol hands the new node
the neighborhood set of the nearby contact node A) and supplying
proximally good candidates during repair.

Each member's distance from the owner is computed once, on admission,
and kept in a sorted parallel list; admission is then a binary search
instead of a scan that re-evaluates the proximity function per slot
(the proximity metric is immutable for a given pair, so the cached
ordering can never go stale).
"""

from __future__ import annotations

import bisect
from array import array
from typing import Callable, List, Optional, Set

from repro.pastry.versioning import next_version


class NeighborhoodSet:
    """Neighborhood set of one node, ordered by proximity."""

    __slots__ = (
        "owner",
        "capacity",
        "_proximity",
        "_members",
        "_distances",
        "_present",
        "version",
        "_members_cache",
    )

    def __init__(self, owner: int, proximity: Callable[[int], float], capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("neighborhood capacity must be >= 1")
        self.owner = owner
        self.capacity = capacity
        self._proximity = proximity
        self._members: List[int] = []  # sorted nearest-first
        # Parallel to _members; an array of C doubles rather than a list
        # of boxed floats (the distances are only ever compared).
        self._distances = array("d")
        self._present: set = set()  # O(1) membership alongside the lists
        self.version = next_version()
        self._members_cache: Optional[frozenset] = None

    def _invalidate(self) -> None:
        self.version = next_version()
        self._members_cache = None

    def add(self, node_id: int) -> bool:
        """Consider a node for membership; True if admitted/already in."""
        if node_id == self.owner:
            return False
        if node_id in self._present:
            return True
        distance = self._proximity(node_id)
        # After all members at <= distance, as the original scan did.
        position = bisect.bisect_right(self._distances, distance)
        if position >= self.capacity:
            # Would land past the capacity boundary and be evicted at
            # once: reject without touching the lists.
            return False
        self._members.insert(position, node_id)
        self._distances.insert(position, distance)
        self._present.add(node_id)
        self._invalidate()
        if len(self._members) > self.capacity:
            evicted = self._members.pop()
            self._distances.pop()
            self._present.discard(evicted)
        return True

    def bulk_load(self, pairs: List[tuple]) -> None:
        """Replace the membership with pre-ranked ``(distance, id)`` pairs.

        *pairs* must be sorted ascending and contain no duplicates or the
        owner.  Equivalent to offering the ids through :meth:`add` in
        ascending-id order (ties on distance then resolve towards the
        smaller id on both paths), without the per-candidate binary
        search -- the oracle reseed path, which ranks candidates in bulk
        anyway, loads the result directly.
        """
        del pairs[self.capacity :]
        self._members = [node_id for _, node_id in pairs]
        self._distances = array("d", [distance for distance, _ in pairs])
        self._present = set(self._members)
        self._invalidate()

    def replace(self, left: List[int], entered: List[tuple]) -> bool:
        """Follow a change of the pool M was ranked from (``bulk_load``):
        ids *left* it, ``(distance, id)`` pairs *entered* it.

        Pool ids outside a full M all rank after its last member, so the
        new M follows from the old one whenever every member that left is
        matched by an entrant ranked ahead of that last member.  Then
        the change is applied, entrants ranked by ``(distance, id)`` as
        ``bulk_load`` ranks them, and True returned; otherwise M is left
        as it was and False returned, for the caller to re-rank the pool.
        """
        members = self._members
        distances = self._distances
        present = self._present
        capacity = self.capacity
        gone = [node_id for node_id in left if node_id in present]
        if gone and len(members) >= capacity:
            last = (distances[-1], members[-1])
            if sum(1 for pair in entered if pair < last) < len(gone):
                return False
        changed = bool(gone)
        for node_id in gone:
            index = members.index(node_id)
            del members[index]
            del distances[index]
            present.discard(node_id)
        for distance, node_id in entered:
            index = bisect.bisect_left(distances, distance)
            while (index < len(members) and distances[index] == distance
                   and members[index] < node_id):
                index += 1
            if index >= capacity:
                continue
            members.insert(index, node_id)
            distances.insert(index, distance)
            present.add(node_id)
            if len(members) > capacity:
                present.discard(members.pop())
                distances.pop()
            changed = True
        if changed:
            self._invalidate()
        return True

    def remove(self, node_id: int) -> bool:
        """Drop a (failed) node; True if it was present."""
        if node_id in self._present:
            index = self._members.index(node_id)
            self._members.pop(index)
            self._distances.pop(index)
            self._present.discard(node_id)
            self._invalidate()
            return True
        return False

    def members(self) -> Set[int]:
        if self._members_cache is None:
            self._members_cache = frozenset(self._members)
        return self._members_cache

    def ordered_members(self) -> List[int]:
        """Members nearest-first (copy)."""
        return list(self._members)

    def nearest(self) -> int:
        """The proximally nearest known node."""
        if not self._members:
            raise ValueError("neighborhood set is empty")
        return self._members[0]

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._present

    def __len__(self) -> int:
        return len(self._members)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NeighborhoodSet(owner={self.owner}, size={len(self._members)})"
