"""Live Pastry nodes as asyncio tasks, and the cluster orchestrator.

Each :class:`LiveNode` runs a message loop over its transport mailbox
and maintains exactly the same :class:`~repro.pastry.state.NodeState`
the synchronous simulator uses; routing decisions go through the same
:class:`~repro.pastry.routing.DeterministicRouting` policy.  What is
*different* here is genuine concurrency: joins overlap, route messages
interleave, and dead peers are discovered through failed sends rather
than an oracle.

Protocol messages
-----------------
``route``          key routed hop by hop; carries a trail and, for join
                   routes, the routing-table rows collected on the way.
``route-result``   delivered notification back to the requesting node.
``join-request``   X -> contact A: start the join route towards X's id.
``join-reply``     root Z -> X: leaf set, neighborhood, collected rows.
``announce``       X -> everyone in its new state: "I have arrived."

Shutdown is not a message: a node's loop ends only on the local ``None``
sentinel (:meth:`TransportBase.close_mailbox`) or on cancellation.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from typing import Callable, Dict, List, Optional

from repro.core.errors import DegradedError
from repro.faults.policy import AttemptLog, RetryPolicy
from repro.live.transport import InProcessTransport, Message
from repro.netsim.topology import EuclideanPlaneTopology, Topology
from repro.obs.events import NodeFailed, NodeJoined, RetryAttempted
from repro.obs.recorder import Observer
from repro.obs.timeseries import TimeSeriesRecorder
from repro.obs.trace_context import TraceContext
from repro.pastry.nodeid import IdSpace
from repro.pastry.routing import DeterministicRouting, RandomizedRouting
from repro.pastry.state import NodeState
from repro.sim.rng import RngRegistry, stable_seed

ROUTE_TIMEOUT = 10.0  # seconds of real time; generous for CI machines

#: HELP texts for the live metric families ``metrics_text()`` exposes.
#: Every family a live deployment serves must be announced (strict
#: scrapers reject families without HELP/TYPE; see obs/validate.py).
LIVE_METRIC_HELP = {
    "live.messages": "Messages sent by live nodes, by protocol kind.",
    "live.messages.unknown": "Received messages of a kind no handler serves.",
    "live.nodes": "Live (responding) nodes in the cluster.",
    "live.joins": "Completed live join protocols.",
    "live.retries": "Live operation retry attempts, by operation.",
    "live.route.hops": "Overlay hops per completed live route.",
    "live.trace.spans": "Span records collected from live traces.",
    "node.failures": "Nodes that stopped responding.",
    "storage.used_bytes": "Bytes stored across live replicas.",
    "wire.resynced_bytes": "Garbage bytes skipped resynchronizing frame streams.",
    "wire.send_queue_depth": "Frames queued on outbound links awaiting writers.",
    "wire.in_flight": "Frames accepted toward the wire but not yet delivered.",
    "wire.mailbox_backlog": "Undelivered messages across all mailboxes.",
    "load.ops": "Load-harness operations, by op and outcome.",
    "load.latency_seconds": "Load-harness operation latency, by op.",
    "ledger.unpriced": "Ledger charges for kinds missing from MESSAGE_COSTS.",
}


class LiveNode:
    """One overlay node running as an asyncio task."""

    def __init__(self, cluster: "LiveCluster", node_id: int) -> None:
        self.cluster = cluster
        self.node_id = node_id
        self.state = NodeState(
            space=cluster.space,
            node_id=node_id,
            leaf_capacity=cluster.leaf_capacity,
            neighborhood_capacity=cluster.neighborhood_capacity,
            proximity=lambda other: cluster.topology.distance(node_id, other),
        )
        self.joined = asyncio.Event()
        self._policy = DeterministicRouting()
        self._task: Optional[asyncio.Task] = None
        self._running = False
        # Per-trace child-span sequence numbers (see _trace_child).
        self._trace_seq: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        self._running = True
        self._task = asyncio.create_task(self._run(), name=f"node-{self.node_id:x}")

    async def stop(self) -> None:
        if self._task is None:
            return
        self._running = False
        self.cluster.transport.close_mailbox(self.node_id)
        try:
            await asyncio.wait_for(self._task, timeout=2.0)
        except asyncio.TimeoutError:  # pragma: no cover - defensive
            self._task.cancel()
        except asyncio.CancelledError:
            pass  # the task was cancelled by kill(); that is its end state

    async def _run(self) -> None:
        transport = self.cluster.transport
        while self._running:
            message = await transport.receive(self.node_id)
            if message is None:
                break
            handler = getattr(self, f"_on_{message.kind.replace('-', '_')}", None)
            if handler is not None:
                await handler(message)
            elif self.cluster.obs.enabled:
                # No per-kind label: the kind string came from outside.
                self.cluster.obs.metrics.counter("live.messages.unknown").increment()

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    async def _send(self, destination: int, message: Message):
        """Send; a *dead-peer* result is the discovery of that death.

        Only ``peer_dead`` outcomes forget the destination: a send that
        merely timed out under backpressure (``timed_out``) may have a
        live-but-slow peer behind it, and treating it as a death used to
        turn load spikes into false failure cascades (every slow send
        purged a healthy peer from the sender's state).  The returned
        :class:`~repro.live.transport.SendResult` is truthy iff the
        message was accepted towards the wire.
        """
        obs = self.cluster.obs
        if obs.enabled:
            obs.metrics.counter("live.messages", kind=message.kind).increment()
        result = await self.cluster.transport.send(destination, message)
        if result.peer_dead:
            self.state.forget(destination)
        return result

    def _trace_child(self, header: str, *qualifiers: object) -> TraceContext:
        """Derive this node's next child context under *header*.

        Span ids carry a per-(node, trace) sequence number, so sibling
        spans stay distinct even when a duplicated message replays the
        same handler.  The counter is scoped per trace: concurrent
        operations cannot perturb each other's ids, which is what keeps
        interleaved traces individually byte-deterministic.
        """
        ctx = TraceContext.from_traceparent(header)
        seq = self._trace_seq.get(ctx.trace_id, 0)
        self._trace_seq[ctx.trace_id] = seq + 1
        return ctx.child(self.node_id, seq, *qualifiers)

    def _point_span(self, parent: Optional[str], name: str,
                    **attributes: object) -> Optional[str]:
        """Record a point span *name* (this node's id plus *attributes*)
        under the *parent* header; returns the header the reply should
        carry, so a fault on the reply shows under this span.  With
        observation off or an untraced message nothing is recorded and
        *parent* comes back untouched."""
        obs = self.cluster.obs
        if not obs.enabled or parent is None:
            return parent
        ctx = self._trace_child(parent, name)
        obs.traces.record(ctx, name, node_id=f"{self.node_id:x}", **attributes)
        return ctx.to_traceparent()

    async def _forward_route(self, payload: dict) -> None:
        """Advance a route message one hop (or deliver it here).

        Retried messages carry a ``randomized_seed``: those hops are
        chosen by the randomized policy (claim C7), deterministically per
        (retry, node), so a retry explores an alternate path around
        whatever swallowed the original instead of repeating it.

        Traced routes (payload carries a ``traceparent``) record one
        "hop" span per decision via ``next_hop_explained`` -- same
        decision, annotated with the routing rule that fired -- and chain
        the context: the forwarded payload carries *this* hop's context,
        so the assembled tree mirrors the actual propagation path,
        re-decides after failed sends included.
        """
        key = payload["key"]
        policy = self._policy
        rng = None
        retry_seed = payload.get("randomized_seed")
        if retry_seed is not None:
            policy = RandomizedRouting()
            rng = random.Random(stable_seed(retry_seed, self.node_id))
        obs = self.cluster.obs
        parent = payload.get("traceparent")
        tracing = obs.enabled and parent is not None
        while True:
            if tracing:
                start = obs.traces.tick()
                hop, rule = policy.next_hop_explained(self.state, key, rng)
            else:
                hop = policy.next_hop(self.state, key, rng)
            cycle_guard = hop is not None and hop in payload["trail"]
            if cycle_guard:
                hop = None  # cycle guard: deliver here (see network.route)
            if tracing:
                ctx = self._trace_child(parent, "hop")
                attributes = {
                    "node_id": f"{self.node_id:x}",
                    "rule": rule,
                    "hop_index": len(payload["trail"]),
                }
                if cycle_guard:
                    attributes["cycle_guard"] = True
            if hop is None:
                if tracing:
                    obs.traces.record(
                        ctx, "hop", start=start, end=obs.traces.tick(),
                        delivered=True, **attributes,
                    )
                    payload["traceparent"] = ctx.to_traceparent()
                await self._deliver_route(payload)
                return
            payload["trail"].append(self.node_id)
            if payload.get("collect_rows") is not None:
                row_index = min(len(payload["trail"]) - 1, self.cluster.space.digits - 1)
                payload["collect_rows"].append(
                    (row_index, self.state.routing_table.row(row_index))
                )
            if tracing:
                payload["traceparent"] = ctx.to_traceparent()
            message = Message(kind="route", sender=self.node_id, payload=payload,
                              traceparent=payload.get("traceparent"))
            delivered = await self._send(hop, message)
            if tracing:
                attributes["next_node"] = f"{hop:x}"
                if not delivered:
                    attributes["send_failed"] = True
                obs.traces.record(
                    ctx, "hop", start=start, end=obs.traces.tick(), **attributes
                )
            if delivered:
                return
            payload["trail"].pop()
            if payload.get("collect_rows") is not None:
                payload["collect_rows"].pop()
            if tracing:
                # Re-decide under the *incoming* context; the failed
                # hop's span stays in the tree marked send_failed.
                payload["traceparent"] = parent
            # Send failed: the dead hop was forgotten; re-decide.

    async def _deliver_route(self, payload: dict) -> None:
        purpose = payload.get("purpose", "lookup")
        if purpose == "join":
            await self._answer_join(payload)
            return
        result = Message(
            kind="route-result",
            sender=self.node_id,
            payload={
                "request_id": payload["request_id"],
                "path": payload["trail"] + [self.node_id],
                "key": payload["key"],
            },
            traceparent=self._point_span(
                payload.get("traceparent"), "deliver",
                path_length=len(payload["trail"]) + 1,
            ),
        )
        await self._send(payload["origin"], result)

    # ------------------------------------------------------------------ #
    # message handlers
    # ------------------------------------------------------------------ #

    async def _on_route(self, message: Message) -> None:
        await self._forward_route(message.payload)

    async def _on_route_result(self, message: Message) -> None:
        obs = self.cluster.obs
        if obs.enabled:
            obs.metrics.histogram("live.route.hops").add(
                max(len(message.payload["path"]) - 1, 0)
            )
        self.cluster._resolve(message.payload["request_id"], message.payload["path"])

    async def _on_join_request(self, message: Message) -> None:
        """Contact-node side: start the join route towards X's id."""
        joiner = message.payload["joiner"]
        payload = {
            "key": joiner,
            "origin": joiner,
            "purpose": "join",
            "trail": [],
            "collect_rows": [],
            "contact_neighborhood": sorted(
                self.state.neighborhood.members() | {self.node_id}
            ),
        }
        await self._forward_route(payload)

    async def _answer_join(self, payload: dict) -> None:
        """Root side: hand the joiner its initial state."""
        reply = Message(
            kind="join-reply",
            sender=self.node_id,
            payload={
                "leaf_set": sorted(self.state.leaf_set.members() | {self.node_id}),
                "neighborhood": payload.get("contact_neighborhood", []),
                "rows": payload.get("collect_rows", []),
                "trail": payload["trail"] + [self.node_id],
            },
        )
        await self._send(payload["origin"], reply)

    async def _on_join_reply(self, message: Message) -> None:
        """Joiner side: absorb the state, announce arrival."""
        payload = message.payload
        for peer in itertools.chain(
            payload["neighborhood"], payload["leaf_set"], payload["trail"]
        ):
            if peer != self.node_id:
                self.state.learn(peer)
        for row_index, row in payload["rows"]:
            self.state.routing_table.install_row(
                row_index, row, self.state.proximity
            )
            for entry in row:
                if entry is not None and entry != self.node_id:
                    self.state.learn(entry)
        announce = sorted(self.state.known_nodes())
        for peer in announce:
            await self._send(
                peer, Message(kind="announce", sender=self.node_id, payload={})
            )
        obs = self.cluster.obs
        if obs.enabled:
            obs.metrics.counter("live.joins").increment()
            obs.emit(
                NodeJoined(
                    node_id=self.node_id,
                    contact_id=message.sender,
                    messages=len(announce),
                    route_hops=max(len(payload["trail"]) - 1, 0),
                )
            )
        self.joined.set()

    async def _on_announce(self, message: Message) -> None:
        self.state.learn(message.sender)

    async def _on_leafset_request(self, message: Message) -> None:
        await self._send(
            message.sender,
            Message(
                kind="leafset-reply",
                sender=self.node_id,
                payload={
                    "members": sorted(self.state.leaf_set.members() | {self.node_id})
                },
            ),
        )

    async def _on_leafset_reply(self, message: Message) -> None:
        for member in message.payload["members"]:
            if member != self.node_id:
                self.state.learn(member)

    # ------------------------------------------------------------------ #
    # telemetry plane (scrape / subscribe / probe over the normal wire)
    # ------------------------------------------------------------------ #

    def _telemetry_state(self) -> dict:
        """This node's structural state section: plain JSON, derived
        only from protocol state (no clocks), so snapshots stay
        deterministic per seed."""
        state = {
            "joined": self.joined.is_set(),
            "known_nodes": len(self.state.known_nodes()),
            "leaf_set": len(self.state.leaf_set.members()),
            "mailbox_depth": self.cluster.transport.mailbox_depth(self.node_id),
        }
        store = getattr(self, "store", None)
        if store is not None:
            state["store_files"] = store.replica_count()
            state["store_bytes"] = store.used
        return state

    async def _on_telemetry_scrape(self, message: Message) -> None:
        """Serve a full metrics/ledger/span snapshot to a collector."""
        obs = self.cluster.obs
        payload: dict = {
            "request_id": message.payload.get("request_id"),
            "node": f"{self.node_id:032x}",
            "state": self._telemetry_state(),
        }
        if obs.enabled:
            # Refresh the derived gauges first, so the export the
            # collector federates is the same view a local snapshot or
            # /metrics scrape would see.
            self.cluster.transport.publish_wire_gauges(obs.metrics)
            obs.metrics.gauge("live.trace.spans").set(float(len(obs.traces)))
            payload["registry"] = obs.metrics.export()
            payload["ledger"] = obs.ledger.summary(top=5)
            span_count = int(message.payload.get("spans", 0) or 0)
            if span_count > 0:
                payload["spans"] = [
                    record.to_dict()
                    for record in obs.traces.records()[-span_count:]
                ]
        await self._send(
            message.sender,
            Message(kind="telemetry-snapshot", sender=self.node_id,
                    payload=payload),
        )

    async def _on_telemetry_subscribe(self, message: Message) -> None:
        """Stream windowed series increments to a collector.

        The subscriber owns the clock: a request carrying ``at`` makes
        this node sample its registry into the window covering that
        logical instant before answering, and ``since`` bounds the reply
        to windows the subscriber has not seen yet.
        """
        obs = self.cluster.obs
        payload: dict = {
            "request_id": message.payload.get("request_id"),
            "node": f"{self.node_id:032x}",
        }
        recorder = getattr(obs, "timeseries", None)
        if obs.enabled and recorder is not None:
            window = message.payload.get("window")
            if window is not None:
                recorder.configure_window(float(window))
            at = message.payload.get("at")
            if at is not None:
                self.cluster.transport.publish_wire_gauges(obs.metrics)
                recorder.sample(obs.metrics, at=float(at))
            since = message.payload.get("since")
            payload["series"] = recorder.snapshot(
                since=int(since) if since is not None else None
            )
        await self._send(
            message.sender,
            Message(kind="telemetry-series", sender=self.node_id,
                    payload=payload),
        )

    async def _on_health_probe(self, message: Message) -> None:
        """Answer a structured health verdict built from live wire state."""
        transport = self.cluster.transport
        stats = transport.wire_stats()
        depth = transport.mailbox_depth(self.node_id)
        limit = transport.mailbox_capacity()
        checks = {
            "running": self._running,
            "joined": self.joined.is_set(),
            # A mailbox at >= 90% of its bound means backpressure is
            # about to reach this node's peers; unbounded (limit 0)
            # mailboxes skip the check.
            "mailbox_headroom": limit == 0 or depth < 0.9 * limit,
        }
        await self._send(
            message.sender,
            Message(
                kind="health-report",
                sender=self.node_id,
                payload={
                    "request_id": message.payload.get("request_id"),
                    "node": f"{self.node_id:032x}",
                    "healthy": all(checks.values()),
                    "checks": checks,
                    "mailbox_depth": depth,
                    "mailbox_limit": limit,
                    "in_flight": stats["in_flight"],
                    "resynced_bytes": stats["resynced_bytes"],
                    "send_queue_depth": stats["send_queue_depth"],
                    "pool": stats,
                    "state": self._telemetry_state(),
                },
            ),
        )


class LiveCluster:
    """Builds and drives a live overlay."""

    def __init__(
        self,
        seed: int = 0,
        leaf_capacity: int = 16,
        neighborhood_capacity: int = 16,
        topology: Optional[Topology] = None,
        space: Optional[IdSpace] = None,
        observer: Optional[Observer] = None,
        fault_plan=None,
        retry: Optional[RetryPolicy] = None,
        transport=None,
    ) -> None:
        self.space = space if space is not None else IdSpace(128, 4)
        self.rngs = RngRegistry(seed)
        self.topology = (
            topology
            if topology is not None
            else EuclideanPlaneTopology(self.rngs.stream("topology"))
        )
        self.leaf_capacity = leaf_capacity
        self.neighborhood_capacity = neighborhood_capacity
        # A live cluster is an operational deployment, not a perf
        # benchmark, so it observes itself by default (the clock stays
        # None: event timestamps are 0.0, ordering by sequence number).
        self.obs = observer if observer is not None else Observer()
        # *fault_plan* threads message-level chaos through the transport;
        # *retry* is the backoff discipline every client-facing operation
        # runs under (one-shot waits were how lost replies used to hang).
        # *transport* swaps the wire implementation (the asyncio TCP
        # transport in repro.live.net, say) -- the cluster, retry layer,
        # fault plan, tracing and ledger all run unchanged over it.
        if transport is None:
            transport = InProcessTransport(faults=fault_plan)
        elif fault_plan is not None:
            transport.faults = fault_plan
        self.transport = transport
        self.retry = retry if retry is not None else RetryPolicy()
        self._backoff_rng = self.rngs.stream("retry-backoff")
        # Trace ids are drawn from their own stream so adding/removing
        # traced operations never perturbs topology or backoff draws.
        self._trace_rng = self.rngs.stream("trace-ids")
        if self.obs.enabled:
            # Wire faults on traced messages land in the same collector
            # as the hop/attempt spans, so a trace shows *where* the
            # wire swallowed a message, not just that a retry fired.
            self.transport.traces = self.obs.traces
            # Every live message crosses the transport, so the cost
            # ledger charges there (real payload sizes for data-bearing
            # messages; modelled sizes otherwise).
            self.transport.ledger = self.obs.ledger
            for name, help_text in LIVE_METRIC_HELP.items():
                self.obs.metrics.describe(name, help_text)
            # Windowed series for the telemetry plane; samples are driven
            # by whoever owns the clock (a TelemetryCollector's rounds).
            if getattr(self.obs, "timeseries", None) is None:
                self.obs.timeseries = TimeSeriesRecorder()
        self.nodes: Dict[int, LiveNode] = {}
        # request_id -> the reply future of one in-flight client request.
        self._reply_futures: Dict[int, asyncio.Future] = {}
        self._request_ids = itertools.count(1)

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #

    def _create_node(self, node_id: Optional[int] = None) -> LiveNode:
        rng = self.rngs.stream("node-ids")
        if node_id is None:
            node_id = self.space.random_id(rng)
            while node_id in self.nodes:
                node_id = self.space.random_id(rng)
        self.topology.add_endpoint(node_id)
        self.transport.register(node_id)
        node = self._make_node(node_id)
        self.nodes[node_id] = node
        if self.obs.enabled:
            self.obs.metrics.gauge("live.nodes").increment()
        node.start()
        return node

    def _make_node(self, node_id: int) -> LiveNode:
        return LiveNode(self, node_id)

    def _nearest_contact(self, newcomer: LiveNode, joined: List[int]) -> int:
        return min(
            joined,
            key=lambda other: self.topology.distance(newcomer.node_id, other),
        )

    async def start(self, n: int, join_concurrency: int = 8) -> None:
        """Bootstrap an n-node overlay with *concurrent* joins.

        Nodes join in waves of *join_concurrency*; within a wave the join
        protocols genuinely overlap (interleaved routes, announcements
        racing with other joins).
        """
        if n < 1:
            raise ValueError("need at least one node")
        first = self._create_node()
        first.joined.set()
        joined = [first.node_id]
        remaining = n - 1
        while remaining > 0:
            wave = [self._create_node() for _ in range(min(join_concurrency, remaining))]
            remaining -= len(wave)

            async def join_one(node: LiveNode) -> None:
                contact = self._nearest_contact(node, joined)
                await self.transport.send(
                    contact,
                    Message(kind="join-request", sender=node.node_id,
                            payload={"joiner": node.node_id}),
                )
                await asyncio.wait_for(node.joined.wait(), timeout=ROUTE_TIMEOUT)

            await asyncio.gather(*(join_one(node) for node in wave))
            joined.extend(node.node_id for node in wave)
            # Concurrent joiners within a wave may not have learned of
            # each other (their announcements raced); one leaf-set
            # stabilization round restores the adjacency invariants --
            # the live equivalent of Pastry's periodic leaf-set
            # maintenance.
            await self.stabilize(rounds=1)
        await self.stabilize(rounds=2)

    async def stabilize(self, rounds: int = 1) -> None:
        """Leaf-set gossip: every live node asks its current leaf-set
        members for *their* leaf sets and merges the replies.  Two rounds
        propagate membership across any single missed announcement."""
        for _ in range(rounds):
            for node_id in self.live_ids():
                node = self.nodes[node_id]
                for member in sorted(node.state.leaf_set.members()):
                    await self.transport.send(
                        member,
                        Message(kind="leafset-request", sender=node_id, payload={}),
                    )
            await self._quiesce()

    async def _quiesce(self, settle_checks: int = 3) -> None:
        """Wait until the transport has been idle for a few checks.

        ``idle()`` covers mailboxes *and* whatever in-flight state the
        transport tracks (socket send queues, un-delivered frames), so
        the settle loop does not declare quiet while bytes are still on
        the wire.
        """
        clear = 0
        while clear < settle_checks:
            await asyncio.sleep(0.005)
            if self.transport.idle():
                clear += 1
            else:
                clear = 0

    async def shutdown(self) -> None:
        await asyncio.gather(*(node.stop() for node in self.nodes.values()))
        await self.transport.aclose()

    def kill(self, node_id: int) -> None:
        """Silent failure: the node stops responding; peers discover it
        through failed sends."""
        self.transport.mark_dead(node_id)
        node = self.nodes[node_id]
        node._running = False
        if node._task is not None:
            node._task.cancel()
        if self.obs.enabled:
            self.obs.metrics.gauge("live.nodes").decrement()
            self.obs.metrics.counter("node.failures").increment()
            self.obs.emit(NodeFailed(node_id=node_id))

    def metrics_text(self) -> str:
        """The cluster's metrics in Prometheus text exposition format
        (what a live deployment would serve on ``/metrics``)."""
        if not self.obs.enabled:
            return ""
        self.obs.metrics.gauge("live.trace.spans").set(float(len(self.obs.traces)))
        return self.obs.metrics.to_prometheus()

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #

    def live_ids(self) -> List[int]:
        return sorted(
            node_id for node_id in self.nodes
            if not self.transport.is_dead(node_id)
        )

    def global_root(self, key: int) -> int:
        """Ground truth for verification (never used by the protocol)."""
        return self.space.closest(key, iter(self.live_ids()))

    def _resolve(self, request_id: int, result) -> None:
        """Complete request *request_id* with the reply a node received."""
        future = self._reply_futures.pop(request_id, None)
        if future is not None and not future.done():
            future.set_result(result)

    async def route(self, key: int, origin: int,
                    timeout: float = ROUTE_TIMEOUT) -> List[int]:
        """Route *key* from *origin*; returns the path (origin..root).

        One request under :meth:`_attempts`, traced as ``live.route``
        (the root span also carries the delivered ``path_length``).
        """
        return await self._attempts(
            "route", origin,
            {"key": key, "origin": origin, "purpose": "lookup"},
            timeout, f"key {key:x} from {origin:x}: no reply",
            lambda path: {"path_length": len(path)},
        )

    async def _attempts(self, op: str, origin: int, base_payload: dict,
                        timeout: float, failure: str,
                        result_attributes: Optional[Callable] = None):
        """Drive one client request to its reply under the retry policy.

        Every client operation is the same act: one route message handed
        to *origin*, re-sent through randomized alternates when no reply
        comes (claim C7).  The caller supplies what differs: *op* (the
        retry/trace/error label), *base_payload* (key, purpose, reply-to
        address, operation fields), the *failure* text and, optionally,
        *result_attributes* (reply -> extra root-span attributes).

        The driver owns the rest.  One ``request_id`` spans all attempts,
        so a root recognises a retry (resumes a pending fan-out, replays
        a completed result) instead of running the operation twice; one
        reply future outlives each attempt (hence the ``shield``): the
        reply to an earlier attempt completes the request just as well.
        Each attempt gets a fresh payload (empty trail; after the first,
        a ``randomized_seed`` fixed per (request, attempt)), an
        :class:`AttemptLog` record and an equal share of *timeout*, with
        jittered exponential backoff between attempts.  The trace is a
        ``live.<op>`` root span plus one "attempt" child per (re)send
        whose context travels inside the payload, so the assembled tree
        shows the hops, fan-out and serves the messages actually took.
        Exhaustion raises :class:`DegradedError` with the attempt history
        and trace id -- the caller degrades instead of hanging on one
        lost message; either way the future is reaped, so a late reply
        finds nothing to trip over.
        """
        request_id = next(self._request_ids)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._reply_futures[request_id] = future
        policy = self.retry
        attempt_timeout = timeout / policy.attempts
        obs = self.obs
        tracing = obs.enabled
        root_ctx: Optional[TraceContext] = None
        attempt_log = AttemptLog()
        root_start = 0.0
        root_attributes = {"key": f"{base_payload['key']:x}", "origin": f"{origin:x}"}
        if tracing:
            root_ctx = TraceContext.root(self._trace_rng)
            attempt_log.trace_id = root_ctx.trace_id
            root_start = obs.traces.tick()
        delay = 0.0
        try:
            for attempt in range(policy.attempts):
                payload = dict(base_payload, request_id=request_id, trail=[])
                reroute_seed = None
                if attempt > 0:
                    reroute_seed = stable_seed(
                        self.rngs.master_seed, request_id, attempt
                    )
                    payload["randomized_seed"] = reroute_seed
                attempt_ctx: Optional[TraceContext] = None
                attempt_start = 0.0
                if tracing:
                    attempt_ctx = root_ctx.child("attempt", attempt)
                    attempt_start = obs.traces.tick()
                    payload["traceparent"] = attempt_ctx.to_traceparent()
                attempt_log.add(
                    attempt=attempt + 1,
                    span_id=attempt_ctx.span_id if attempt_ctx else "",
                    delay=delay,
                    randomized=reroute_seed is not None,
                    reroute_seed=reroute_seed,
                )
                await self.transport.send(
                    origin, Message(kind="route", sender=origin, payload=payload,
                                    traceparent=payload.get("traceparent"))
                )
                try:
                    result = await asyncio.wait_for(
                        asyncio.shield(future), attempt_timeout
                    )
                    delivered = True
                except asyncio.TimeoutError:
                    delivered = False
                if tracing:
                    obs.traces.record(
                        attempt_ctx, "attempt",
                        start=attempt_start, end=obs.traces.tick(),
                        attempt=attempt + 1,
                        outcome="delivered" if delivered else "timeout",
                        randomized=reroute_seed is not None,
                    )
                if delivered:
                    break
                if attempt + 1 < policy.attempts:
                    delay = policy.backoff(attempt + 1, self._backoff_rng)
                    if tracing:
                        obs.metrics.counter("live.retries", op=op).increment()
                        obs.emit(RetryAttempted(op=op, attempt=attempt + 1,
                                                delay=delay, request_id=request_id))
                    await asyncio.sleep(delay)
            if tracing:
                if delivered and result_attributes is not None:
                    root_attributes.update(result_attributes(result))
                obs.traces.record(
                    root_ctx, f"live.{op}",
                    start=root_start, end=obs.traces.tick(),
                    attempts=attempt + 1,
                    outcome="ok" if delivered else "degraded",
                    **root_attributes,
                )
            if delivered:
                return result
            raise DegradedError(
                op, policy.attempts, failure,
                history=attempt_log.as_tuple(),
                trace_id=attempt_log.trace_id,
            )
        finally:
            pending = self._reply_futures.pop(request_id, None)
            if pending is not None and not pending.done():
                pending.cancel()
