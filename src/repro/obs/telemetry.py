"""The telemetry collector: scrape a live cluster over its own wire.

A :class:`TelemetryCollector` registers a *client address* on the
cluster's transport -- over :class:`~repro.live.net.SocketTransport`
that is a real TCP listener -- and talks the two priced telemetry
request/reply kinds to every node:

* ``telemetry-scrape`` -> ``telemetry-snapshot``: the node's registry
  export as typed rows (structured, not text), its ledger summary as
  one fixed row, and its state as fixed fields;
* ``health-probe``     -> ``health-report``: a structured verdict
  (running/joined/mailbox headroom, mailbox depth vs. limit, the
  transport's wire stats as one fixed row).

Both replies are values of declared shapes (``LIVE_KINDS``); the
collector rebuilds the dicts its callers read.  Scrapes fold into one
**federated registry**: every remote instrument reappears here with a
``node="<hex id>"`` label added, so :meth:`TelemetryCollector.to_prometheus`
renders a single exposition for the whole cluster that passes the
strict :func:`repro.obs.validate.check_prometheus_text` parser.
Federation rebuilds from the latest per-node exports each time --
re-scraping a node replaces its contribution instead of double counting.

Windowed series are sampled here, not on the nodes: the collector owns
one :class:`~repro.obs.timeseries.TimeSeriesRecorder` and, at the
instant its caller names (:meth:`TelemetryCollector.sample`), files the
federated registry into it, under the exposition's names.

Determinism: nodes are scraped sequentially in sorted-id order, and the
caller drives the sampling clock, so two same-seed runs -- and the same
workload over both transports -- produce byte-identical federated
snapshots and series modulo the node labels.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.live.transport import WIRE_STATS, Message
from repro.obs.ledger import summary_of_row
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesRecorder

#: Collector addresses live far outside the 128-bit nodeId space, so a
#: collector can never collide with (or be mistaken for) an overlay
#: node.  Multiple collectors on one transport count up from here.
COLLECTOR_ADDRESS_BASE = 1 << 130

#: HELP texts for the families the collector itself synthesizes from
#: the per-node state fields of scrape replies.
TELEMETRY_METRIC_HELP = {
    "node.joined": "Whether the node completed its join (1) or not (0).",
    "node.known_nodes": "Overlay nodes known to this node's state.",
    "node.leaf_set": "Members in this node's leaf set.",
    "node.mailbox_depth": "Messages waiting in this node's mailbox.",
    "node.store_files": "Replicas held in this node's file store.",
    "node.store_bytes": "Bytes held in this node's file store.",
}
#: The state fields of both replies, in the order a state dict lists them.
STATE_FIELDS = tuple(name[len("node."):] for name in TELEMETRY_METRIC_HELP)


def _state_of(payload: dict) -> dict:
    return {name: payload[name] for name in STATE_FIELDS if name in payload}


class TelemetryError(RuntimeError):
    """A scrape/probe failed: unreachable node or no reply in time."""


class TelemetryCollector:
    """Scrapes one live cluster into a federated view and its series."""

    def __init__(self, cluster, address: Optional[int] = None,
                 timeout: float = 10.0, window: float = 5.0) -> None:
        self.cluster = cluster
        self.transport = cluster.transport
        if address is None:
            address = COLLECTOR_ADDRESS_BASE
            while address in getattr(self.transport, "_mailboxes", {}):
                address += 1
        self.address = address
        self.transport.register(address)
        self.timeout = timeout
        #: The federated registry sampled into windows of *window*
        #: logical seconds.
        self.timeseries = TimeSeriesRecorder(window=window)
        self._request_ids = itertools.count(1)
        # Latest per-node artifacts, keyed by the node's hex label.
        self._exports: Dict[str, list] = {}
        self._states: Dict[str, dict] = {}
        self.ledgers: Dict[str, dict] = {}
        self.health: Dict[str, dict] = {}
        self.scrapes = 0

    # ------------------------------------------------------------------ #
    # wire plumbing
    # ------------------------------------------------------------------ #

    @staticmethod
    def label_of(node_id: int) -> str:
        return f"{node_id:032x}"

    def _targets(self) -> List[int]:
        return self.cluster.live_ids()

    async def _request(self, node_id: int, kind: str, reply_kind: str) -> dict:
        """One request/reply round over the live wire.

        Replies are matched by (kind, request_id); a stale reply from an
        earlier timed-out request is drained and dropped.  The drain is
        bounded so a flooded mailbox cannot spin this loop forever.
        """
        request_id = next(self._request_ids)
        message = Message(kind=kind, sender=self.address,
                          payload={"request_id": request_id})
        result = await self.transport.send(node_id, message)
        if not result:
            raise TelemetryError(
                f"{kind} to {node_id:x} not accepted: {result.status}"
            )
        for _ in range(64):
            reply = await self.transport.receive(self.address,
                                                 timeout=self.timeout)
            if reply is None:
                raise TelemetryError(
                    f"{kind} to {node_id:x}: no {reply_kind} within "
                    f"{self.timeout}s"
                )
            if (reply.kind == reply_kind
                    and reply.payload["request_id"] == request_id):
                return reply.payload
        raise TelemetryError(
            f"{kind} to {node_id:x}: drowned in stale replies"
        )

    # ------------------------------------------------------------------ #
    # scrape: full snapshots
    # ------------------------------------------------------------------ #

    async def scrape(self, node_id: int) -> dict:
        """Scrape one node; folds its registry export, state fields and
        ledger summary into the collector's per-node tables."""
        payload = await self._request(
            node_id, "telemetry-scrape", "telemetry-snapshot"
        )
        label = payload["node"]
        if "registry" in payload:
            self._exports[label] = payload["registry"]
            self._states[label] = _state_of(payload)
            self.ledgers[label] = summary_of_row(payload["ledger"])
        self.scrapes += 1
        return payload

    async def scrape_all(self) -> dict:
        """Scrape every live node (sorted order) and return the
        federated snapshot."""
        for node_id in self._targets():
            await self.scrape(node_id)
        return self.federated_snapshot()

    def federated_registry(self) -> MetricsRegistry:
        """A fresh registry holding every node's instruments under
        ``node=<label>`` labels, plus the synthesized ``node.*`` state
        gauges.  Rebuilt from the latest exports, so it is always the
        current view regardless of how often nodes were re-scraped."""
        registry = MetricsRegistry()
        for name, help_text in sorted(TELEMETRY_METRIC_HELP.items()):
            registry.describe(name, help_text)
        for label in sorted(self._exports):
            registry.absorb(self._exports[label], extra_labels={"node": label})
            for key, value in sorted(self._states[label].items()):
                registry.gauge(f"node.{key}", node=label).set(float(value))
        return registry

    def federated_snapshot(self) -> dict:
        return self.federated_registry().snapshot()

    def to_prometheus(self) -> str:
        """One text exposition for the whole cluster (strict-parser
        clean; see obs/validate.check_prometheus_text)."""
        return self.federated_registry().to_prometheus()

    def sample(self, at: float) -> int:
        """File the federated registry of the latest scrapes into the
        window covering the logical instant *at*; returns that window's
        index.  The series is ``self.timeseries.snapshot()``."""
        return self.timeseries.sample(self.federated_registry(), at=at)

    # ------------------------------------------------------------------ #
    # probe: health verdicts
    # ------------------------------------------------------------------ #

    async def probe(self, node_id: int) -> dict:
        """Probe one node; returns (and keeps) its verdict as a dict:
        the three checks under ``checks``, the wire stats under
        ``pool`` (and its three pager facts beside it), the state
        fields under ``state``."""
        payload = await self._request(node_id, "health-probe", "health-report")
        pool = {name: value for name, value in zip(WIRE_STATS, payload["wire"])
                if value is not None}
        verdict = {
            "request_id": payload["request_id"],
            "node": payload["node"],
            "healthy": payload["healthy"],
            "checks": {name: payload[name]
                       for name in ("running", "joined", "mailbox_headroom")},
            "mailbox_depth": payload["mailbox_depth"],
            "mailbox_limit": payload["mailbox_limit"],
            "in_flight": pool["in_flight"],
            "resynced_bytes": pool["resynced_bytes"],
            "send_queue_depth": pool["send_queue_depth"],
            "pool": pool,
            "state": _state_of(payload),
        }
        self.health[verdict["node"]] = verdict
        return verdict

    async def probe_all(self) -> dict:
        """Probe every live node; the cluster is healthy iff every node
        is."""
        nodes = []
        for node_id in self._targets():
            try:
                nodes.append(await self.probe(node_id))
            except TelemetryError as error:
                nodes.append({
                    "node": self.label_of(node_id),
                    "healthy": False,
                    "error": str(error),
                })
        return {
            "healthy": bool(nodes) and all(n.get("healthy") for n in nodes),
            "nodes": nodes,
        }


def render_console(collector: TelemetryCollector, health: dict,
                   frame: int) -> str:
    """One ``repro top`` frame: cluster header, hot message kinds,
    latency percentiles, per-node health rows."""
    snapshot = collector.federated_snapshot()
    nodes = health.get("nodes", [])
    lines = [
        f"repro top -- frame {frame}  nodes={len(nodes)}  "
        f"scrapes={collector.scrapes}  "
        f"cluster={'HEALTHY' if health.get('healthy') else 'DEGRADED'}",
        "",
    ]
    # Message-kind totals, summed across nodes, hottest first.
    by_kind: Dict[str, int] = {}
    for name, value in snapshot["counters"].items():
        if name.startswith("live.messages{"):
            kind = name.split('kind="', 1)[-1].split('"', 1)[0]
            by_kind[kind] = by_kind.get(kind, 0) + value
    if by_kind:
        lines.append("messages by kind:")
        hot = sorted(by_kind.items(), key=lambda item: (-item[1], item[0]))
        for kind, count in hot[:6]:
            lines.append(f"  {kind:<20} {count:>8}")
        lines.append("")
    # Latency percentiles from the federated load histograms.
    latency = {
        name: stats for name, stats in snapshot["histograms"].items()
        if name.startswith("load.latency_seconds{")
    }
    if latency:
        lines.append("op latency (federated):")
        seen = set()
        for name, stats in sorted(latency.items()):
            op = name.split('op="', 1)[-1].split('"', 1)[0]
            if op in seen:
                continue
            seen.add(op)
            lines.append(
                f"  {op:<9} n={int(stats['count']):5d} "
                f"p50={stats['p50'] * 1000:8.2f}ms "
                f"p95={stats['p95'] * 1000:8.2f}ms "
                f"p99={stats['p99'] * 1000:8.2f}ms"
            )
        lines.append("")
    lines.append("node            joined  mailbox  inflight  resync  queue")
    for node in nodes:
        label = str(node.get("node", "?"))
        state = node.get("state", {})
        lines.append(
            f"{label[:12]:<14}  "
            f"{'yes' if state.get('joined') else 'NO ':<6}  "
            f"{node.get('mailbox_depth', 0):>7}  "
            f"{node.get('in_flight', 0):>8}  "
            f"{node.get('resynced_bytes', 0):>6}  "
            f"{node.get('send_queue_depth', 0):>5}"
        )
    return "\n".join(lines)
