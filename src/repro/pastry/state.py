"""The bundle of per-node Pastry state, with invariant checks.

Groups the three structures every Pastry node maintains -- routing table,
leaf set, neighborhood set -- and offers whole-state operations: the total
entry count (claim C2 measures this), discovery of every node id the
state references, and consistency checks the test suite runs after joins
and failures.
"""

from __future__ import annotations

from typing import Callable, Optional, Set, Tuple

from repro.pastry.leaf_set import LeafSet
from repro.pastry.neighborhood import NeighborhoodSet
from repro.pastry.nodeid import IdSpace
from repro.pastry.routing_table import RoutingTable


class NodeState:
    """All routing state owned by one Pastry node."""

    __slots__ = (
        "space",
        "node_id",
        "proximity",
        "routing_table",
        "leaf_set",
        "neighborhood",
        "_known_cache",
        "_known_versions",
    )

    def __init__(
        self,
        space: IdSpace,
        node_id: int,
        leaf_capacity: int,
        neighborhood_capacity: int,
        proximity: Callable[[int], float],
    ) -> None:
        self.space = space
        self.node_id = space.validate(node_id)
        self.proximity = proximity
        self.routing_table = RoutingTable(space, node_id)
        self.leaf_set = LeafSet(space, node_id, leaf_capacity)
        self.neighborhood = NeighborhoodSet(node_id, proximity, neighborhood_capacity)
        self._known_cache: Optional[frozenset] = None
        self._known_versions: Optional[Tuple[int, int, int]] = None

    def learn(self, node_id: int, use_proximity: bool = True) -> None:
        """Offer a newly discovered node to every structure it may belong
        in.  This is the single entry point through which nodes absorb
        knowledge of each other, so all structures stay consistent."""
        if node_id == self.node_id:
            return
        self.routing_table.add(node_id, self.proximity if use_proximity else None)
        self.leaf_set.add(node_id)
        self.neighborhood.add(node_id)

    def reseed_neighborhood(self, distances: Optional[Callable] = None) -> None:
        """Rebuild the neighborhood set from the current leaf set and
        routing table.

        This is the oracle's neighborhood invariant: M is always exactly
        what a fresh proximity-ranked pass over leaf-set members and
        routing-table entries would admit.  The full rebuild uses this
        pass; the incremental maintainer moves M by each event's pool
        delta (``NeighborhoodSet.replace``) and falls back to this pass
        where the delta cannot say what replaces a departed member.
        Candidates are ranked by ``(distance, id)`` in bulk and loaded
        directly -- identical to offering them through ``add`` in
        ascending-id order (the set is always the best-|M| by that key,
        with distance ties resolved towards the smaller id on both
        paths), without a binary search per candidate.  *distances*, when
        given, is a batch proximity evaluator for this node
        (:meth:`Topology.batch_distance`) used in place of the per-member
        unary calls.
        """
        self.neighborhood = NeighborhoodSet(
            self.node_id, self.proximity, self.neighborhood.capacity
        )
        pool = set(self.routing_table.entries())
        pool |= self.leaf_set.members()
        pool.discard(self.node_id)
        if distances is None:
            proximity = self.proximity
            pairs = sorted((proximity(known), known) for known in pool)
        else:
            members = sorted(pool)
            pairs = sorted(zip(distances(members), members))
        self.neighborhood.bulk_load(pairs)

    def forget(self, node_id: int) -> bool:
        """Remove a failed node from every structure; True if any held it."""
        removed = self.routing_table.remove(node_id)
        removed |= self.leaf_set.remove(node_id)
        removed |= self.neighborhood.remove(node_id)
        return removed

    def known_nodes(self) -> Set[int]:
        """Every node id this state references anywhere.

        Cached against the three structures' version stamps: the rare-case
        and randomized routing paths call this once per hop, so in a
        quiescent network the union is built once per node, not per hop.
        The returned frozenset is a snapshot -- do not mutate it.
        """
        versions = (
            self.routing_table.version,
            self.leaf_set.version,
            self.neighborhood.version,
        )
        if self._known_cache is None or self._known_versions != versions:
            known = set(self.routing_table.entries())
            known |= self.leaf_set.members()
            known |= self.neighborhood.members()
            known.discard(self.node_id)
            self._known_cache = frozenset(known)
            self._known_versions = versions
        return self._known_cache

    def total_entries(self) -> int:
        """Total state size in entries, the quantity bounded by
        (2^b - 1) * ceil(log_2^b N) + 2l in claim C2.  Counts the routing
        table and leaf set (the neighborhood set is reported separately by
        the benchmark because the paper's formula excludes it)."""
        return len(self.routing_table) + len(self.leaf_set)

    def check_invariants(self, live_nodes: Optional[Set[int]] = None) -> None:
        """Structural invariants; with *live_nodes*, also checks that no
        structure references a dead node."""
        self.routing_table.check_invariants()
        if live_nodes is not None:
            for referenced in self.known_nodes():
                if referenced not in live_nodes:
                    raise AssertionError(
                        f"node {self.space.format_id(self.node_id)} references "
                        f"dead node {self.space.format_id(referenced)}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NodeState(id={self.space.format_id(self.node_id)}, "
            f"rt={len(self.routing_table)}, ls={len(self.leaf_set)}, "
            f"nh={len(self.neighborhood)})"
        )
