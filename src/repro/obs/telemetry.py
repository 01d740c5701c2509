"""The telemetry collector: scrape a live cluster over its own wire.

A :class:`TelemetryCollector` registers a *client address* on the
cluster's transport -- over :class:`~repro.live.net.SocketTransport`
that is a real TCP listener -- and talks the three priced telemetry
message kinds to every node:

* ``telemetry-scrape``    -> ``telemetry-snapshot``: the node's full
  registry export (structured, not text), its ledger summary, a node
  state section, and optionally a batch of recent span records;
* ``telemetry-subscribe`` -> ``telemetry-series``: the node's windowed
  time-series, incrementally (``since`` carries the last window index
  the collector has, so a steady-state round ships one window);
* ``health-probe``        -> ``health-report``: a structured verdict
  (running/joined, mailbox depth vs. limit, pool state,
  ``resynced_bytes``, in-flight counts).

Scrapes fold into one **federated registry**: every remote instrument
reappears here with a ``node="<hex id>"`` label added, so
:meth:`TelemetryCollector.to_prometheus` renders a single exposition
for the whole cluster that passes the strict
:func:`repro.obs.validate.check_prometheus_text` parser.  Federation
rebuilds from the latest per-node exports each time -- re-scraping a
node replaces its contribution instead of double counting.

Determinism: nodes are scraped sequentially in sorted-id order, and the
collector drives the sampling clock (``at = round * window``), so two
same-seed runs -- and the same workload over both transports -- produce
byte-identical federated snapshots modulo the node labels.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.live.transport import Message
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import extend_snapshot, merge_snapshots

#: Collector addresses live far outside the 128-bit nodeId space, so a
#: collector can never collide with (or be mistaken for) an overlay
#: node.  Multiple collectors on one transport count up from here.
COLLECTOR_ADDRESS_BASE = 1 << 130

#: HELP texts for the families the collector itself synthesizes from
#: the per-node state sections of scrape replies.
TELEMETRY_METRIC_HELP = {
    "node.joined": "Whether the node completed its join (1) or not (0).",
    "node.known_nodes": "Overlay nodes known to this node's state.",
    "node.leaf_set": "Members in this node's leaf set.",
    "node.mailbox_depth": "Messages waiting in this node's mailbox.",
    "node.store_files": "Replicas held in this node's file store.",
    "node.store_bytes": "Bytes held in this node's file store.",
}


class TelemetryError(RuntimeError):
    """A scrape/probe failed: unreachable node or no reply in time."""


class TelemetryCollector:
    """Scrapes and streams one live cluster into a federated view."""

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
        #: Logical window width the collector samples remote series at.
        self.window = window
        self._request_ids = itertools.count(1)
        # Latest per-node artifacts, keyed by the node's hex label.
        self._exports: Dict[str, dict] = {}
        self._states: Dict[str, dict] = {}
        self.ledgers: Dict[str, dict] = {}
        self.series: Dict[str, dict] = {}
        self.spans: Dict[str, list] = {}
        self.health: Dict[str, dict] = {}
        self._since: Dict[str, int] = {}
        self.scrapes = 0

    # ------------------------------------------------------------------ #
    # wire plumbing
    # ------------------------------------------------------------------ #

    @staticmethod
    def label_of(node_id: int) -> str:
        return f"{node_id:032x}"

    def _targets(self) -> List[int]:
        return self.cluster.live_ids()

    async def _request(self, node_id: int, kind: str, body: dict,
                       reply_kind: str) -> dict:
        """One request/reply round over the live wire.

        Replies are matched by (kind, request_id); a stale reply from an
        earlier timed-out request is drained and dropped.  The drain is
        bounded so a flooded mailbox cannot spin this loop forever.
        """
        request_id = next(self._request_ids)
        message = Message(kind=kind, sender=self.address,
                          payload=dict(body, request_id=request_id))
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

    async def scrape(self, node_id: int, spans: int = 0) -> dict:
        """Scrape one node; folds its registry export, state section,
        ledger summary and (optionally) last *spans* span records into
        the collector's per-node tables."""
        payload = await self._request(
            node_id, "telemetry-scrape", {"spans": spans}, "telemetry-snapshot"
        )
        label = payload["node"]
        if "registry" in payload:
            self._exports[label] = payload["registry"]
            self._states[label] = payload["state"]
            self.ledgers[label] = payload["ledger"]
            if "spans" in payload:
                self.spans[label] = payload["spans"]
        self.scrapes += 1
        return payload

    async def scrape_all(self, spans: int = 0) -> dict:
        """Scrape every live node (sorted order) and return the
        federated snapshot."""
        for node_id in self._targets():
            await self.scrape(node_id, spans=spans)
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
            for key, value in sorted(self._states.get(label, {}).items()):
                if isinstance(value, bool):
                    value = 1.0 if value else 0.0
                registry.gauge(f"node.{key}", node=label).set(float(value))
        return registry

    def federated_snapshot(self) -> dict:
        return self.federated_registry().snapshot()

    def to_prometheus(self) -> str:
        """One text exposition for the whole cluster (strict-parser
        clean; see obs/validate.check_prometheus_text)."""
        return self.federated_registry().to_prometheus()

    # ------------------------------------------------------------------ #
    # subscribe: windowed series
    # ------------------------------------------------------------------ #

    async def subscribe(self, node_id: int,
                        at: Optional[float] = None) -> dict:
        """One incremental series round with *node_id*.

        *at* is the logical sample instant (the collector's clock);
        passing it makes the node sample its registry into the matching
        window before answering, so the collector controls windowing --
        live nodes have no injected clock of their own.
        """
        label = self.label_of(node_id)
        # Ask for everything *including* the last window we have seen:
        # a re-sample can land more data in it, and the fold replaces
        # that window's rows, so re-shipping it is idempotent.
        last = self._since.get(label)
        body: dict = {
            "since": (last - 1) if last is not None else None,
            "window": self.window,
        }
        if at is not None:
            body["at"] = float(at)
        payload = await self._request(
            node_id, "telemetry-subscribe", body, "telemetry-series"
        )
        series = payload.get("series")
        if series is not None:
            self.series[label] = extend_snapshot(self.series.get(label), series)
            latest = int(series.get("latest_index", -1))
            if latest >= 0:
                self._since[label] = latest
        return payload

    async def subscribe_all(self, at: Optional[float] = None) -> dict:
        for node_id in self._targets():
            await self.subscribe(node_id, at=at)
        return self.merged_series()

    def merged_series(self) -> dict:
        """The cluster-wide federated series (cross-node window merge)."""
        return merge_snapshots(
            self.series[label] for label in sorted(self.series)
        )

    # ------------------------------------------------------------------ #
    # probe: health verdicts
    # ------------------------------------------------------------------ #

    async def probe(self, node_id: int) -> dict:
        verdict = await self._request(
            node_id, "health-probe", {}, "health-report"
        )
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
