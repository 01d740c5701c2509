"""A Pastry node: per-node state plus the local routing decision.

A node knows only its own state (routing table, leaf set, neighborhood
set); the :class:`repro.pastry.network.PastryNetwork` walks messages from
node to node by repeatedly asking the current node for its next hop.
Keeping the decision strictly local is what makes the simulation faithful
-- there is no global-knowledge shortcut anywhere on the routing path.

Applications (the PAST storage layer) attach themselves to nodes via the
:class:`Application` hook interface: ``on_forward`` fires at every
intermediate node (where PAST's caching inspects passing files) and
``on_deliver`` fires at the node whose id is numerically closest to the
message key (where PAST's root-node logic runs).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from repro.pastry.nodeid import IdSpace
from repro.pastry.routing import RULE_DELIVER_SELF, DeterministicRouting
from repro.pastry.state import NodeState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pastry.network import PastryNetwork


class Application:
    """Hook interface for the layer above Pastry (PAST implements this)."""

    def on_deliver(self, node: "PastryNode", key: int, message: object) -> object:
        """Called at the destination node; the return value is handed back
        to the caller of ``PastryNetwork.route``."""
        return None

    def on_forward(self, node: "PastryNode", key: int, message: object) -> object:
        """Called at every node a message passes through (including the
        origin).  Returning a non-None value satisfies the message at
        this node -- PAST serves lookups from en-route replicas and
        cached copies this way."""
        return None


class PastryNode:
    """One overlay node."""

    __slots__ = (
        "network",
        "node_id",
        "_proximity",
        "alive",
        "malicious",
        "application",
        "state",
    )

    def __init__(
        self,
        network: "PastryNetwork",
        node_id: int,
        leaf_capacity: int,
        neighborhood_capacity: int,
    ) -> None:
        self.network = network
        self.node_id = network.space.validate(node_id)
        # Bound once: the topology never changes (and endpoints are never
        # re-registered) for the network's lifetime, and proximity() runs
        # inside table-admission loops -- so the origin's position is
        # hoisted into a unary closure up front.
        self._proximity = network.topology.unary_distance(node_id)
        self.alive = True
        # A malicious node accepts messages but does not forward them
        # (the attack model of section 2.2, "Fault-tolerance").
        self.malicious = False
        self.application: Optional[Application] = None
        self.state = NodeState(
            space=network.space,
            node_id=node_id,
            leaf_capacity=leaf_capacity,
            neighborhood_capacity=neighborhood_capacity,
            proximity=self._proximity,
        )

    @property
    def space(self) -> IdSpace:
        return self.network.space

    def proximity(self, other_id: int) -> float:
        """Scalar network distance from this node to another (the metric
        used when choosing among routing-table candidates)."""
        return self._proximity(other_id)

    def next_hop(self, key: int, policy=None, rng: Optional[random.Random] = None) -> Optional[int]:
        """This node's local routing decision for *key*.

        Dead entries are pruned and repaired on the fly (Pastry's lazy
        repair): if the chosen hop is dead, the node removes it from its
        state, asks row-mates for a replacement, and re-decides.
        """
        if policy is None:
            policy = DeterministicRouting()
        attempts = 0
        # Bounded retry: each iteration removes at least one dead entry
        # from this node's state, so termination is guaranteed.
        while True:
            hop = policy.next_hop(self.state, key, rng)
            if hop is None:
                return None
            if self.network.is_live(hop):
                return hop
            self.on_dead_entry(hop)
            attempts += 1
            if attempts > len(self.state.known_nodes()) + 4:
                return None

    def next_hop_explained(
        self, key: int, policy=None, rng: Optional[random.Random] = None
    ):
        """``(next_hop, rule)``: the decision of :meth:`next_hop` plus the
        routing rule that produced it (span tracing; same lazy repair of
        dead entries)."""
        if policy is None:
            policy = DeterministicRouting()
        attempts = 0
        while True:
            hop, rule = policy.next_hop_explained(self.state, key, rng)
            if hop is None:
                return None, rule
            if self.network.is_live(hop):
                return hop, rule
            self.on_dead_entry(hop)
            attempts += 1
            if attempts > len(self.state.known_nodes()) + 4:
                return None, RULE_DELIVER_SELF

    def on_dead_entry(self, dead_id: int) -> None:
        """React to discovering that a referenced node is dead: forget it
        and trigger the appropriate repair protocol."""
        from repro.pastry import failure  # local import: cycle guard

        in_leaf = dead_id in self.state.leaf_set
        slot = self.state.routing_table.slot_for(dead_id)
        in_table = dead_id in self.state.routing_table
        self.state.forget(dead_id)
        if in_leaf:
            failure.repair_leaf_set(self.network, self, dead_id)
        if in_table and slot is not None:
            failure.repair_routing_entry(self.network, self, *slot)

    def learn(self, node_id: int) -> None:
        """Absorb knowledge of another node into all local structures."""
        if self.network.is_live(node_id):
            self.state.learn(node_id)

    def deliver(self, key: int, message: object) -> object:
        """Run the application deliver hook (no-op without an app)."""
        if self.application is not None:
            return self.application.on_deliver(self, key, message)
        return None

    def forward(self, key: int, message: object) -> object:
        """Run the application forward hook; a non-None return satisfies
        the message here (no-op without an app)."""
        if self.application is not None:
            return self.application.on_forward(self, key, message)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "live" if self.alive else "dead"
        return f"PastryNode({self.space.format_id(self.node_id)}, {status})"
