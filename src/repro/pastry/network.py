"""The simulated Pastry overlay network.

The network holds the node registry and the transport: it walks messages
from node to node by repeatedly asking the *current* node for its next
hop.  Nodes never consult global state when routing -- the network's
global view exists only for bookkeeping (statistics, ground-truth checks
in tests, and the optional "oracle" bootstrap that builds a large overlay
without running one join per node).

Two bootstrap methods:

* ``build(n, method="join")`` -- every node after the first joins through
  the real arrival protocol (claim C3 is measured on this path);
* ``build(n, method="oracle")`` -- node state is constructed directly
  from the global membership (perfect leaf sets, proximity-chosen routing
  tables).  Used by the large-N routing experiments where running
  thousands of joins would dominate runtime without changing the result.
"""

from __future__ import annotations

import bisect
import math
import random
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.netsim.topology import EuclideanPlaneTopology, Topology
from repro.obs.events import NodeFailed, NodeRecovered, OracleRebuilt, RouteCompleted
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.recorder import NULL_OBSERVER
from repro.obs.trace_context import TraceCollector, TraceContext
from repro.pastry.node import PastryNode
from repro.pastry.nodeid import IdSpace
from repro.pastry.routing import RULE_DELIVER_SELF, RULE_EN_ROUTE, DeterministicRouting
from repro.sim.rng import RngRegistry

DEFAULT_LEAF_CAPACITY = 32
DEFAULT_NEIGHBORHOOD_CAPACITY = 32

# Routing tables are proximity-filled from a bounded candidate sample in
# oracle mode; "perfect" scans every candidate, "random" models a network
# that ignores locality entirely (the E5 ablation).
TABLE_QUALITY_PERFECT = "perfect"
TABLE_QUALITY_GOOD = "good"
TABLE_QUALITY_RANDOM = "random"


def oracle_rows(space: IdSpace, count: int) -> int:
    """Rows the oracle populates for a *count*-node overlay.

    ceil(log_2^b N) rows hold nearly all entries; two extra rows catch
    the stragglers whose prefixes collide deeper than expected.  The
    incremental maintainer uses the same formula to detect when a
    membership change crosses a row-count threshold.
    """
    if count <= 0:
        return 0
    return min(
        space.digits,
        max(1, math.ceil(math.log(max(count, 2), space.base))) + 2,
    )


def _trace_hop(traces: TraceCollector, trace: TraceContext, path: List[int],
               rule: str, next_node: Optional[int], delivered: bool = True) -> None:
    """Record the decision at ``path[-1]`` as a ``hop`` span under the
    route's *trace* context, with the live hop attributes: a forwarding
    hop names its ``next_node``, a terminal one whether it ``delivered``."""
    index = len(path) - 1
    if next_node is None:
        outcome = {"delivered": delivered}
    else:
        outcome = {"next_node": f"{next_node:x}"}
    traces.record(trace.child("hop", index), "hop", node_id=f"{path[-1]:x}",
                  rule=rule, hop_index=index, **outcome)


@dataclass
class RouteResult:
    """Outcome of routing one message."""

    key: int
    path: List[int]
    delivered: bool
    reason: str = "delivered"
    value: object = None

    @property
    def hops(self) -> int:
        """Number of overlay hops taken (path length minus the origin)."""
        return max(len(self.path) - 1, 0)

    @property
    def destination(self) -> Optional[int]:
        return self.path[-1] if self.delivered and self.path else None


class PastryNetwork:
    """A collection of Pastry nodes plus the simulated transport."""

    def __init__(
        self,
        space: Optional[IdSpace] = None,
        topology: Optional[Topology] = None,
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
        neighborhood_capacity: int = DEFAULT_NEIGHBORHOOD_CAPACITY,
        rngs: Optional[RngRegistry] = None,
        table_quality: str = TABLE_QUALITY_GOOD,
        observer=None,
    ) -> None:
        self.space = space if space is not None else IdSpace()
        self.rngs = rngs if rngs is not None else RngRegistry(0)
        self.topology = (
            topology
            if topology is not None
            else EuclideanPlaneTopology(self.rngs.stream("topology"))
        )
        self.leaf_capacity = leaf_capacity
        self.neighborhood_capacity = neighborhood_capacity
        self.table_quality = table_quality
        # Observability: the null observer is falsy and every hot-path
        # site is guarded by ``if self.obs.enabled``, so an uninstrumented
        # network pays one attribute test per site.  With a real observer
        # installed, the message counters land in its registry so all
        # accounting shares one surface.
        self.obs = observer if observer is not None else NULL_OBSERVER
        self.stats = observer.metrics if observer is not None else MetricsRegistry()
        self._message_counters: Dict[str, Counter] = {}
        # Cost accounting: a direct reference to the observer's ledger
        # (None with the null observer), so the per-message charge site
        # costs one ``is not None`` test when the ledger is off.
        self._ledger = getattr(self.obs, "ledger", None)
        self.nodes: Dict[int, PastryNode] = {}
        # Sorted live ids, for ground truth.  Ids narrow enough for a C
        # unsigned-64 array live unboxed (one machine word per node
        # instead of a pointer to a heap int); the default 128-bit space
        # falls back to a plain list.
        self._live_sorted = array("Q") if self.space.bits <= 64 else []
        # Spatial index over the *live* nodes, used to answer "who is the
        # proximally nearest live contact" in O(grid cell) instead of a
        # full scan (makes join-mode builds near-linear in N).
        self._live_index = self.topology.make_index()
        # Optional incremental oracle maintainer (attach_incremental_oracle);
        # when installed, membership changes update node state in place
        # instead of requiring a full rebuild_state_oracle pass.
        self._oracle = None
        # True while another rebuild_state_oracle would reproduce node
        # state exactly: set by a perfect-quality rebuild (the sampled
        # qualities re-draw their table picks on every rebuild), cleared
        # by any membership change.  attach_incremental_oracle then skips
        # its cold-start rebuild.
        self._state_is_rebuild = False

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #

    def add_node(self, node_id: Optional[int] = None) -> PastryNode:
        """Create a node (state empty; see join.join_network / build)."""
        rng = self.rngs.stream("node-ids")
        if node_id is None:
            node_id = self.space.random_id(rng)
            while node_id in self.nodes:
                node_id = self.space.random_id(rng)
        elif node_id in self.nodes:
            raise ValueError(f"node id {node_id} already present")
        self.topology.add_endpoint(node_id)
        node = PastryNode(self, node_id, self.leaf_capacity, self.neighborhood_capacity)
        self.nodes[node_id] = node
        bisect.insort(self._live_sorted, node_id)
        self._live_index.add(node_id)
        self._state_is_rebuild = False
        if self._oracle is not None:
            self._oracle.on_join(node_id)
        return node

    def is_live(self, node_id: int) -> bool:
        node = self.nodes.get(node_id)
        return node is not None and node.alive

    def live_ids(self) -> List[int]:
        """Sorted ids of all live nodes (copy)."""
        return list(self._live_sorted)

    def live_count(self) -> int:
        return len(self._live_sorted)

    def mark_failed(self, node_id: int) -> PastryNode:
        """Silently kill a node (it stops responding; nothing is sent).

        Other nodes discover the failure lazily (routing) or through the
        keep-alive protocol in :mod:`repro.pastry.failure`.
        """
        node = self.nodes[node_id]
        if node.alive:
            node.alive = False
            index = bisect.bisect_left(self._live_sorted, node_id)
            if index < len(self._live_sorted) and self._live_sorted[index] == node_id:
                self._live_sorted.pop(index)
            self._live_index.discard(node_id)
            self._state_is_rebuild = False
            if self._oracle is not None:
                self._oracle.on_leave(node_id)
            if self.obs.enabled:
                self.obs.metrics.counter("node.failures").increment()
                self.obs.emit(NodeFailed(node_id=node_id))
        return node

    def mark_recovered(self, node_id: int) -> PastryNode:
        """Bring a previously failed node back (state retained, possibly
        stale -- the recovery protocol refreshes it)."""
        node = self.nodes[node_id]
        if not node.alive:
            node.alive = True
            bisect.insort(self._live_sorted, node_id)
            self._live_index.add(node_id)
            self._state_is_rebuild = False
            if self._oracle is not None:
                self._oracle.on_revive(node_id)
            if self.obs.enabled:
                self.obs.metrics.counter("node.recoveries").increment()
                self.obs.emit(NodeRecovered(node_id=node_id))
        return node

    def global_root(self, key: int) -> int:
        """Ground truth: the live node numerically closest to *key*.

        Used only by tests/benchmarks to verify that the decentralised
        routing reached the correct node; never consulted while routing.
        """
        if not self._live_sorted:
            raise ValueError("network has no live nodes")
        ids = self._live_sorted
        index = bisect.bisect_left(ids, key)
        candidates = {ids[index % len(ids)], ids[(index - 1) % len(ids)]}
        return self.space.closest(key, iter(candidates))

    def replica_root_set(self, key: int, k: int) -> List[int]:
        """Ground truth: the k live nodes numerically closest to *key*."""
        if k > len(self._live_sorted):
            raise ValueError("k exceeds live node count")
        ids = self._live_sorted
        index = bisect.bisect_left(ids, key)
        window = [
            ids[(index + offset) % len(ids)]
            for offset in range(-k, k + 1)
        ]
        window = sorted(set(window), key=lambda n: (self.space.distance(n, key), -n))
        return window[:k]

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #

    def count_message(
        self,
        category: str,
        amount: int = 1,
        kind: Optional[str] = None,
        node: Optional[int] = None,
    ) -> None:
        """Record protocol traffic (join, repair, keep-alive, routing).

        Runs once per hop, so the counter object is memoised per category
        -- instruments are create-on-first-use and never replaced, which
        makes caching them safe.

        *kind* names the concrete message for the cost ledger's wire-size
        model (defaults to *category* -- callers whose one counter bucket
        spans several message shapes pass the specific kind); *node* is
        the sending node, for per-node spend attribution.  Both are
        ignored unless an observer (and thus a ledger) is installed.
        """
        counter = self._message_counters.get(category)
        if counter is None:
            counter = self.stats.counter(f"messages.{category}")
            self._message_counters[category] = counter
        counter.increment(amount)
        ledger = self._ledger
        if ledger is not None:
            ledger.charge(kind if kind is not None else category, node=node, count=amount)

    def route(
        self,
        key: int,
        origin: int,
        policy=None,
        rng: Optional[random.Random] = None,
        message: object = None,
        category: str = "route",
        max_hops: Optional[int] = None,
        trace: Optional[TraceContext] = None,
    ) -> RouteResult:
        """Walk a message from *origin* towards the live node whose id is
        numerically closest to *key*, one local decision per hop.

        With a *trace* context (and an observer installed), the route
        records a ``route`` span at it in ``obs.traces``, with one
        ``hop`` child per decision carrying the routing rule that fired
        at decision time.
        """
        if policy is None:
            policy = DeterministicRouting()
        if max_hops is None:
            max_hops = 4 * self.space.digits + self.leaf_capacity
        current = self.nodes[origin]
        if not current.alive:
            raise ValueError("route origin is not alive")
        # None when untraced or when no observer is installed.
        traces: Optional[TraceCollector] = None if trace is None else self.obs.traces
        if traces is not None:
            start = traces.tick()
        path = [origin]
        visited = {origin}
        while True:
            if current.malicious and current.node_id != origin:
                # The node accepts the message and silently drops it.
                self.count_message(category, node=current.node_id)
                if traces is not None:
                    _trace_hop(traces, trace, path, "dropped (malicious)", None,
                               delivered=False)
                result = RouteResult(key=key, path=path, delivered=False, reason="dropped")
                break
            # Application en-route check: a node holding the requested
            # file answers immediately (how lookups find a nearby replica
            # instead of always travelling to the root).
            value = current.forward(key, message)
            if value is not None:
                if traces is not None:
                    _trace_hop(traces, trace, path, RULE_EN_ROUTE, None)
                result = RouteResult(
                    key=key, path=path, delivered=True, reason="en-route", value=value
                )
                break
            if traces is not None:
                hop, rule = current.next_hop_explained(key, policy, rng)
            else:
                hop = current.next_hop(key, policy, rng)
            if hop is None or hop in visited:
                # hop in visited: the prefix heuristic and the numeric
                # leaf fallback disagree (possible only after heavy
                # correlated failures); the paper's algorithm delivers at
                # the current node in this rare case rather than loop.
                value = current.deliver(key, message)
                if traces is not None:
                    _trace_hop(traces, trace, path, RULE_DELIVER_SELF, None)
                result = RouteResult(key=key, path=path, delivered=True, value=value)
                break
            self.count_message(category, node=current.node_id)
            if traces is not None:
                _trace_hop(traces, trace, path, rule, hop)
            path.append(hop)
            visited.add(hop)
            if len(path) - 1 > max_hops:
                result = RouteResult(key=key, path=path, delivered=False, reason="hop-limit")
                break
            current = self.nodes[hop]
        self._finish_route(result, category)
        if traces is not None:
            traces.record(
                trace, "route", start=start, end=traces.tick(),
                key=f"{key:x}", origin=f"{origin:x}", category=category,
                policy=getattr(policy, "name", type(policy).__name__),
                hops=result.hops, delivered=result.delivered, reason=result.reason,
            )
        return result

    def _finish_route(self, result: RouteResult, category: str) -> None:
        """Record metrics/events for a finished route (observer installed
        only)."""
        obs = self.obs
        if obs.enabled:
            metrics = obs.metrics
            metrics.counter("route.requests", category=category).increment()
            metrics.histogram("route.hops", category=category).add(result.hops)
            if result.delivered and len(result.path) > 1:
                # Relative delay penalty (claim C4): network distance
                # actually travelled over the direct origin-destination
                # distance.  Same-point endpoints are skipped -- stretch
                # is undefined when the direct distance is zero.
                topology = self.topology
                direct = topology.distance(result.path[0], result.destination)
                if direct > 0:
                    travelled = sum(
                        topology.distance(a, b)
                        for a, b in zip(result.path, result.path[1:])
                    )
                    metrics.histogram("route.stretch", category=category).add(
                        travelled / direct
                    )
            if not result.delivered:
                metrics.counter(
                    "route.failed", category=category, reason=result.reason
                ).increment()
            obs.emit(
                RouteCompleted(
                    key=result.key,
                    origin=result.path[0],
                    destination=result.destination,
                    hops=result.hops,
                    delivered=result.delivered,
                    reason=result.reason,
                    category=category,
                )
            )

    # ------------------------------------------------------------------ #
    # bootstrap
    # ------------------------------------------------------------------ #

    def build(self, n: int, method: str = "join") -> List[PastryNode]:
        """Create an overlay of *n* nodes.

        ``join``: each node arrives through the real protocol, contacting
        the proximally nearest existing node -- exactly the deployment
        story in section 2.2.  ``oracle``: state is constructed directly;
        orders of magnitude faster and equivalent for routing experiments.
        """
        if n < 1:
            raise ValueError("need at least one node")
        if method == "join":
            return self._build_by_join(n)
        if method == "oracle":
            return self._build_by_oracle(n)
        raise ValueError(f"unknown build method: {method!r}")

    def _build_by_join(self, n: int) -> List[PastryNode]:
        from repro.pastry.join import join_network  # cycle guard

        created = [self.add_node()]
        for _ in range(n - 1):
            node = self.add_node()
            contact = self._nearest_live_contact(node)
            join_network(self, node, contact)
            created.append(node)
        return created

    def _nearest_live_contact(self, newcomer: PastryNode) -> int:
        """The proximally nearest existing live node (models the 'nearby
        node A' a joining node is assumed to know, e.g. from expanding-
        ring IP multicast).

        Answered by the live-node spatial index; ties break towards the
        smaller node id, matching the historical linear scan exactly.
        """
        best = self._live_index.nearest(
            newcomer.node_id, exclude=(newcomer.node_id,)
        )
        if best is None:
            raise ValueError("no live contact available")
        return best

    def _build_by_oracle(self, n: int) -> List[PastryNode]:
        created = [self.add_node() for _ in range(n)]
        self.rebuild_state_oracle()
        return created

    def rebuild_state_oracle(self) -> None:
        """(Re)construct every live node's state from global membership."""
        ids = self._live_sorted
        count = len(ids)
        if count == 0:
            return
        if self.obs.enabled:
            self.obs.metrics.counter("oracle.rebuilds").increment()
            self.obs.emit(OracleRebuilt(nodes=count))
        space = self.space
        rng = self.rngs.stream("oracle-build")

        # --- leaf sets: straight off the sorted ring ---
        for index, node_id in enumerate(ids):
            state = self.nodes[node_id].state
            state.leaf_set = type(state.leaf_set)(space, node_id, self.leaf_capacity)
            state.leaf_set.seed_from_ring(ids, index)

        # --- routing tables: group candidates by (row, prefix, digit) ---
        max_rows = oracle_rows(space, count)
        prefix_of = space.prefix
        digit_of = space.digit
        base = space.base
        groups: Dict[tuple, List[int]] = {}
        for node_id in ids:
            for row in range(max_rows):
                key = (row, prefix_of(node_id, row), digit_of(node_id, row))
                cell = groups.get(key)
                if cell is None:
                    groups[key] = [node_id]
                else:
                    cell.append(node_id)

        pick = self._pick_table_entry
        groups_get = groups.get
        for node_id in ids:
            node = self.nodes[node_id]
            state = node.state
            state.routing_table = type(state.routing_table)(space, node_id)
            install = state.routing_table.install
            distances = self.topology.batch_distance(node_id)
            for row in range(max_rows):
                prefix = prefix_of(node_id, row)
                own_digit = digit_of(node_id, row)
                for col in range(base):
                    if col == own_digit:
                        continue
                    candidates = groups_get((row, prefix, col))
                    if candidates:
                        install(row, col, pick(node, candidates, rng, distances))

        # --- neighborhood sets: reseed from leaf set + routing table ---
        batch_distance = self.topology.batch_distance
        for node_id in ids:
            self.nodes[node_id].state.reseed_neighborhood(batch_distance(node_id))
        self._state_is_rebuild = self.table_quality == TABLE_QUALITY_PERFECT

    def attach_incremental_oracle(self):
        """Switch membership changes to in-place oracle maintenance.

        Requires node state consistent with ``rebuild_state_oracle`` of
        the current membership: a fresh rebuild is run if the network is
        non-empty, making the cold-start explicit, unless the state already
        is a perfect-quality rebuild of this membership.  After attachment,
        ``add_node`` / ``mark_failed`` / ``mark_recovered`` update only
        the nodes whose leaf sets or routing-table cells actually change
        (one ring-window of leaf sets, one table cell per row), so a
        single churn event costs a scan over the changed node's
        prefix-sharers -- two orders of magnitude less than a full
        rebuild at large N.
        """
        from repro.pastry.oracle import IncrementalOracle  # cycle guard

        if self._oracle is None:
            if self._live_sorted and not self._state_is_rebuild:
                self.rebuild_state_oracle()
            self._oracle = IncrementalOracle(self)
        return self._oracle

    def detach_incremental_oracle(self) -> None:
        """Stop maintaining state incrementally on membership changes."""
        self._oracle = None

    def _pick_table_entry(
        self,
        node: PastryNode,
        candidates: List[int],
        rng: random.Random,
        distances=None,
    ) -> int:
        """Choose one routing-table entry from a candidate id group.

        *distances*, when given, is a batch proximity evaluator with the
        owner already bound (:meth:`Topology.batch_distance`); the rebuild
        loop hoists it per node instead of re-binding per cell.
        """
        count = len(candidates)
        if count == 1:
            return candidates[0]
        if self.table_quality == TABLE_QUALITY_RANDOM:
            return candidates[rng.randrange(count)]
        if self.table_quality == TABLE_QUALITY_PERFECT or count <= 16:
            pool = candidates
        else:
            # TABLE_QUALITY_GOOD: proximally best of a bounded sample.
            # One rng draw selects a contiguous 16-wide window of the
            # id-sorted group; ids are assigned independently of network
            # position, so any fixed-size window is an unbiased proximity
            # sample -- same distribution as rng.sample at a fraction of
            # the generator draws.
            start = rng.randrange(count - 15)
            pool = candidates[start : start + 16]
        if distances is None:
            distances = self.topology.batch_distance(node.node_id)
        ranked = distances(pool)
        best = pool[0]
        best_distance = ranked[0]
        for index in range(1, len(pool)):
            d = ranked[index]
            if d < best_distance or (d == best_distance and pool[index] < best):
                best = pool[index]
                best_distance = d
        return best

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #

    def check_all_invariants(self) -> None:
        """Structural invariants on every live node (test support)."""
        live: Set[int] = set(self._live_sorted)
        for node_id in self._live_sorted:
            self.nodes[node_id].state.check_invariants(live_nodes=None)
            # Leaf sets must reference only live nodes after repair.
            for member in self.nodes[node_id].state.leaf_set.members():
                if member not in live:
                    raise AssertionError(
                        f"leaf set of {self.space.format_id(node_id)} references "
                        f"dead node {self.space.format_id(member)}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PastryNetwork(nodes={len(self.nodes)}, live={self.live_count()})"
