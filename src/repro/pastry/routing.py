"""Next-hop selection: the Pastry routing procedure.

Deterministic routing (section 2.2 of the paper):

1. If the key falls within the leaf set's range, forward directly to the
   leaf-set member (possibly the present node) numerically closest to it.
2. Otherwise use the routing table: forward to the entry whose nodeId
   shares a prefix with the key at least one digit longer than the
   present node's.
3. Rare case (vacant table slot or unreachable entry): forward to any
   known node whose id shares a prefix with the key at least as long as
   the present node's and is numerically closer to the key.

Randomized routing (section 2.2, "Fault-tolerance"): the choice among
*all* suitable next hops (those satisfying the loop-freedom condition:
prefix at least as long, numerically strictly closer) is random, with the
probability distribution heavily biased towards the best choice, so that
a retried query eventually takes a route that avoids a malicious node.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.pastry.state import NodeState

# The routing-rule taxonomy.  Every hop decision is one of these; the
# policies report the rule *at decision time* through
# ``next_hop_explained``, which a traced route records on each ``hop``
# span (simulator and live alike).  tests/test_tracing.py holds each
# policy's explained decision equal to its plain ``next_hop``.
RULE_DELIVER_SELF = "deliver (numerically closest)"
RULE_LEAF = "leaf set (numeric jump to closest member)"
RULE_TABLE = "routing table (prefix +1 digit)"
RULE_RARE = "rare case (numeric fallback)"
RULE_EN_ROUTE = "served en route (application)"
RULE_REPLICA = "replica set (proximally nearest of k)"
RULE_RANDOMIZED = "randomized (biased choice)"


class DeterministicRouting:
    """The paper's standard routing procedure."""

    name = "deterministic"

    def next_hop(
        self, state: NodeState, key: int, rng: Optional[random.Random] = None
    ) -> Optional[int]:
        """The next node to forward to, or None to deliver locally."""
        if key == state.node_id:
            return None
        if state.leaf_set.covers(key):
            closest = state.leaf_set.closest_to(key, include_owner=True)
            return None if closest == state.node_id else closest
        entry = state.routing_table.next_hop_for(key)
        if entry is not None:
            return entry
        return self._rare_case(state, key)

    def next_hop_explained(
        self, state: NodeState, key: int, rng: Optional[random.Random] = None
    ) -> Tuple[Optional[int], str]:
        """``(next_hop, rule)``: the same decision as :meth:`next_hop`,
        annotated with which routing rule fired.  Used only on the traced
        path, so :meth:`next_hop` stays tuple-free; the two must take the
        same decision for identical state."""
        if key == state.node_id:
            return None, RULE_DELIVER_SELF
        if state.leaf_set.covers(key):
            closest = state.leaf_set.closest_to(key, include_owner=True)
            if closest == state.node_id:
                return None, RULE_DELIVER_SELF
            return closest, RULE_LEAF
        entry = state.routing_table.next_hop_for(key)
        if entry is not None:
            return entry, RULE_TABLE
        hop = self._rare_case(state, key)
        if hop is None:
            return None, RULE_DELIVER_SELF
        return hop, RULE_RARE

    def _rare_case(self, state: NodeState, key: int) -> Optional[int]:
        """Fall back to any known node with >= prefix and < distance;
        failing that, to a leaf-set member that is numerically closer.

        The second fallback covers the digit-boundary wrap: the true root
        can share a *shorter* prefix with the key than the present node
        does (e.g. key 0x70.., present 0x75.., root 0x6f..) while being
        numerically closer.  The leaf-set rule is purely numeric in the
        paper, so following a strictly closer leaf member is legitimate
        and preserves progress (circular distance strictly decreases).

        If neither fallback yields a node, the present node is (to its
        knowledge) the numerically closest live node, so the message is
        delivered here -- correct unless floor(l/2) adjacent nodes failed
        simultaneously (claim C6).
        """
        space = state.space
        shared_prefix_length = space.shared_prefix_length
        circular_distance = space.distance
        own_prefix = shared_prefix_length(state.node_id, key)
        own_distance = circular_distance(state.node_id, key)
        best: Optional[int] = None
        best_key: Optional[Tuple[int, int, int]] = None
        for candidate in state.known_nodes():
            prefix = shared_prefix_length(candidate, key)
            if prefix < own_prefix:
                continue
            distance = circular_distance(candidate, key)
            if distance >= own_distance:
                continue
            order = (-prefix, distance, -candidate)
            if best_key is None or order < best_key:
                best_key = order
                best = candidate
        if best is not None:
            return best
        closest_leaf = state.leaf_set.closest_to(key, include_owner=True)
        if closest_leaf != state.node_id:
            return closest_leaf
        return None


class ReplicaAwareRouting(DeterministicRouting):
    """'Locating the nearest among the k nodes' heuristic.

    PAST stores a file on the k nodes numerically closest to the fileId.
    Plain routing always terminates at the single numerically closest
    node (the root), so lookups would mostly be served by the root even
    when another replica is physically nearer the client.  This policy
    implements the heuristic evaluated in the Pastry companion paper
    (the source of the "nearest copy in 76% of lookups" claim C5): once
    the key falls within the leaf set's range, the node computes the
    likely replica set -- the k members (including itself) numerically
    closest to the key, exactly how the root placed the replicas -- and
    forwards to the *proximally* nearest of them instead.

    Because Pastry's earlier hops have already kept the message near the
    client (locality, claim C4), "proximally nearest to the forwarding
    node" approximates "proximally nearest to the client", and the
    message lands on a nearby replica, which serves it en route.
    """

    name = "replica-aware"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("replication factor must be >= 1")
        self.k = k

    def next_hop(
        self, state: NodeState, key: int, rng: Optional[random.Random] = None
    ) -> Optional[int]:
        if key == state.node_id:
            return None
        if state.leaf_set.covers(key):
            try:
                candidates = state.leaf_set.replica_candidates(key, self.k)
            except ValueError:
                # k exceeds what this leaf set can estimate; plain routing.
                return super().next_hop(state, key, rng)
            best = min(
                candidates,
                key=lambda c: (
                    0.0 if c == state.node_id else state.proximity(c),
                    c,
                ),
            )
            return None if best == state.node_id else best
        return super().next_hop(state, key, rng)

    def next_hop_explained(
        self, state: NodeState, key: int, rng: Optional[random.Random] = None
    ) -> Tuple[Optional[int], str]:
        if key == state.node_id:
            return None, RULE_DELIVER_SELF
        if state.leaf_set.covers(key):
            try:
                candidates = state.leaf_set.replica_candidates(key, self.k)
            except ValueError:
                return super().next_hop_explained(state, key, rng)
            best = min(
                candidates,
                key=lambda c: (
                    0.0 if c == state.node_id else state.proximity(c),
                    c,
                ),
            )
            if best == state.node_id:
                return None, RULE_DELIVER_SELF
            return best, RULE_REPLICA
        return super().next_hop_explained(state, key, rng)


class RandomizedRouting:
    """Randomized next-hop choice for routing around bad nodes.

    Every known node satisfying the loop-freedom condition is a
    candidate.  Candidates are ranked best-first (longest shared prefix,
    then numerically closest), and candidate *i* is selected with
    probability proportional to ``bias^i`` -- heavily biased towards the
    best choice (low average delay) while leaving every suitable route
    reachable with positive probability, so repeated retries route
    around a malicious node (claim C7).
    """

    name = "randomized"

    def __init__(self, bias: float = 0.25) -> None:
        if not 0.0 < bias < 1.0:
            raise ValueError("bias must be in (0, 1)")
        self.bias = bias

    def candidates(self, state: NodeState, key: int) -> List[int]:
        """All loop-free next hops, ranked best-first."""
        space = state.space
        shared_prefix_length = space.shared_prefix_length
        circular_distance = space.distance
        own_prefix = shared_prefix_length(state.node_id, key)
        own_distance = circular_distance(state.node_id, key)
        suitable = []
        for candidate in state.known_nodes():
            prefix = shared_prefix_length(candidate, key)
            if prefix < own_prefix:
                continue
            distance = circular_distance(candidate, key)
            if distance >= own_distance:
                continue
            suitable.append((-prefix, distance, -candidate, candidate))
        suitable.sort()
        return [entry[3] for entry in suitable]

    def next_hop(
        self, state: NodeState, key: int, rng: Optional[random.Random] = None
    ) -> Optional[int]:
        """Pick a suitable hop at random (biased to the best), or None to
        deliver locally."""
        if key == state.node_id:
            return None
        if rng is None:
            raise ValueError("randomized routing requires an rng")
        ranked = self.candidates(state, key)
        # Delivery condition mirrors the deterministic policy: if the key
        # is in the leaf set range and we are the closest member, deliver.
        # Otherwise the closest leaf member is always a valid hop, even
        # when a digit-boundary wrap gives it a *shorter* shared prefix
        # (the leaf-set rule is purely numeric), so make sure it is a
        # candidate -- and the preferred one, since it terminates the route.
        if state.leaf_set.covers(key):
            closest = state.leaf_set.closest_to(key, include_owner=True)
            if closest == state.node_id:
                return None
            if closest in ranked:
                ranked.remove(closest)
            ranked.insert(0, closest)
        if not ranked:
            # Same digit-boundary fallback as the deterministic policy: a
            # leaf member that is numerically strictly closer is a valid
            # terminal hop even with a shorter shared prefix.
            closest = state.leaf_set.closest_to(key, include_owner=True)
            return None if closest == state.node_id else closest
        # Geometric selection: P(i) proportional to bias^i.
        index = 0
        while index < len(ranked) - 1 and rng.random() < self.bias:
            index += 1
        return ranked[index]

    def next_hop_explained(
        self, state: NodeState, key: int, rng: Optional[random.Random] = None
    ) -> Tuple[Optional[int], str]:
        """The randomized decision is a single rule; tracing it labels the
        hop rather than distinguishing which candidate rank won."""
        hop = self.next_hop(state, key, rng)
        if hop is None:
            return None, RULE_DELIVER_SELF
        return hop, RULE_RANDOMIZED
