"""The three live workloads: a real ``LiveStorageCluster`` under two
closed-loop clients.

One process, one asyncio loop.  Closed loop because a PAST client waits
for its store receipts (or its file) before its next request; an
open-loop rate sweep is left out on purpose (see README).  The cluster
is built exactly as ``repro load`` ships it -- default ``Observer()``,
no ``FaultPlan`` -- so the cost of watching is inside every number.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import hashlib
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core.errors import DegradedError
from repro.live.net import SocketTransport
from repro.live.net.framing import encode_frame
from repro.live.net.pool import NodePool
from repro.live.storage import LiveStorageCluster

from benchmarks.past_bench import spec
from benchmarks.past_bench.inputs import (
    RETRIEVE,
    STORE,
    LiveInputs,
    LiveOp,
    Schedule,
    live_inputs,
)
from benchmarks.past_bench.report import (
    block_percentile,
    blocks_of,
    fast_block,
    percentile,
)
from benchmarks.past_bench.tracing import SpanStats, Tracer, install_live


@dataclass
class Tally:
    """What the clients saw: one sample per verified op, failures apart."""

    #: (completion time, kind, latency), in completion order.
    samples: List[Tuple[float, str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    user_bytes: int = 0

    def latencies(self, kind: str) -> List[float]:
        return [latency for _, sample_kind, latency in self.samples
                if sample_kind == kind]


@dataclass
class Region:
    """One timed stretch of the schedule and what crossed the wire in it."""

    operations: int
    start: float
    wall: float
    messages: int
    wire_bytes: int


async def _client(cluster: LiveStorageCluster, ids: List[int],
                  inputs: LiveInputs, ops: List[LiveOp], tally: Tally) -> None:
    """One closed-loop client.  A result is checked when it arrives --
    stores for success with k holders, retrieves byte for byte by hash --
    and a failed op leaves no latency sample."""
    for op in ops:
        item = inputs.files[op.file]
        origin = ids[op.origin]
        tally.attempted += 1
        start = perf_counter()
        try:
            if op.kind == STORE:
                result = await cluster.insert(item.certificate, item.data, origin)
                end = perf_counter()
                ok = (bool(result.get("success"))
                      and len(result.get("holders", ())) == spec.REPLICATION)
            else:
                result = await cluster.lookup(item.certificate.file_id, origin)
                end = perf_counter()
                data = result.get("data")
                ok = (data is not None
                      and hashlib.sha1(data.to_bytes()).digest() == item.digest)
        except DegradedError:
            ok = False
        if ok:
            tally.samples.append((end, op.kind, end - start))
            tally.user_bytes += item.data.size
        else:
            tally.failed += 1


def _wire_bytes(cluster: LiveStorageCluster) -> int:
    """Bytes the transport put on the wire: real frame bytes over
    sockets; in process, where there is no wire, the bytes the cluster's
    own ledger prices the same messages at."""
    sent = cluster.transport.wire_stats().get("bytes_sent")
    return sent if sent is not None else cluster.obs.ledger.total_bytes()


async def _drive(cluster: LiveStorageCluster, ids: List[int],
                 inputs: LiveInputs, schedule: Schedule, tally: Tally) -> Region:
    messages = cluster.transport.messages_sent
    wire_bytes = _wire_bytes(cluster)
    start = perf_counter()
    await asyncio.gather(*(
        _client(cluster, ids, inputs, ops, tally) for ops in schedule
    ))
    wall = perf_counter() - start
    return Region(
        operations=sum(len(ops) for ops in schedule),
        start=start,
        wall=wall,
        messages=cluster.transport.messages_sent - messages,
        wire_bytes=_wire_bytes(cluster) - wire_bytes,
    )


async def _set_up(workload: spec.LiveWorkload, inputs: LiveInputs,
                  tally: Tally) -> LiveStorageCluster:
    """Start the cluster (listeners, joins, stabilisation) and warm it."""
    transport = SocketTransport() if workload.transport == "socket" else None
    cluster = LiveStorageCluster(seed=inputs.seed, transport=transport,
                                 node_capacity=spec.LIVE_NODE_CAPACITY)
    await cluster.start(spec.LIVE_NODES)
    ids = cluster.live_ids()
    await _drive(cluster, ids, inputs, [inputs.warmup_stores], tally)
    await _drive(cluster, ids, inputs, inputs.warmup, tally)
    return cluster


class Sampler:
    """A 5 ms sleeper: its overshoot is the loop's lag, and every second
    wake-up it reads the transport's queue depths."""

    def __init__(self, transport) -> None:
        self._transport = transport
        self.lag: List[float] = []
        self.send_queue: List[int] = []
        self.in_flight: List[int] = []
        self.backlog: List[int] = []
        self.links = 0

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            due = loop.time() + 0.005
            await asyncio.sleep(0.005)
            self.lag.append(loop.time() - due)
            if len(self.lag) % 2 == 0:
                stats = self._transport.wire_stats()
                self.send_queue.append(stats["send_queue_depth"])
                self.in_flight.append(stats["in_flight"])
                self.backlog.append(self._transport.mailbox_backlog())
                self.links = stats["links"]


async def pool_loopback_us(frame_bytes: int, frames: int) -> float:
    """Isolated ``NodePool`` micro: one endpoint, one link, *frames*
    frames of *frame_bytes*; microseconds per frame from the first
    ``put`` to the last delivery."""
    pool = NodePool()
    delivered = 0
    primed = asyncio.Event()
    done = asyncio.Event()

    async def deliver(payload: bytes) -> None:
        nonlocal delivered
        delivered += 1
        primed.set()
        if delivered == frames + 1:
            done.set()

    def discarded(frame: bytes) -> None:
        raise RuntimeError("pool micro: a loopback frame was discarded")

    pool.spawn(1, deliver)
    link = pool.link_to(1, discarded)
    frame = encode_frame(bytes(frame_bytes))
    try:
        await link.queue.put(frame)  # connects
        await asyncio.wait_for(primed.wait(), 10.0)
        start = perf_counter()
        for _ in range(frames):
            await link.queue.put(frame)
        await asyncio.wait_for(done.wait(), 60.0)
        return 1e6 * (perf_counter() - start) / frames
    finally:
        await pool.aclose()


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _split(schedule: Schedule):
    """(untraced head, traced tail) of every client's op list."""
    cuts = [len(ops) - round(len(ops) * spec.TRACED_SHARE) for ops in schedule]
    return ([ops[:cut] for ops, cut in zip(schedule, cuts)],
            [ops[cut:] for ops, cut in zip(schedule, cuts)])


def _end_to_end(workload_name: str, setups: List[float], region: Region,
                tally: Tally) -> Dict[str, float]:
    stores = tally.latencies(STORE)
    retrieves = tally.latencies(RETRIEVE)
    # Completed ops per second, block by block: a block runs from the
    # completion that closed the previous one to its own last completion.
    blocks = blocks_of(tally.samples)
    ends = [region.start] + [block[-1][0] for block in blocks]
    rates = [len(block) / (end - begin)
             for block, begin, end in zip(blocks, ends, ends[1:])]
    ops_per_s = fast_block(rates, higher_is_faster=True)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops_per_s,
        "store_p50_ms": 1e3 * block_percentile(stores, 50),
        "store_p99_ms": 1e3 * block_percentile(stores, 99),
        "retrieve_p50_ms": 1e3 * block_percentile(retrieves, 50),
        "retrieve_p99_ms": 1e3 * block_percentile(retrieves, 99),
        "wire_bytes_per_user_byte": region.wire_bytes / max(tally.user_bytes, 1),
        "wire_msgs_per_op": region.messages / region.operations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name in spec.NOT_APPLICABLE[workload_name]:
        metrics[name] = ops_per_s
    return metrics


def _per_layer(names: List[str], stats: SpanStats, counts: Dict[str, int],
               sampler: Sampler, cluster: LiveStorageCluster,
               untraced: Region, traced: Region,
               micro: Dict[str, float]) -> Dict[str, float]:
    """Every declared per-layer metric; 0 where the run never entered
    the layer (codec, framing and pool on the in-process transport)."""
    ops = max(stats.requests, 1)
    stores = max(stats.calls.get("client.store", 0), 1)
    calls = stats.calls
    feeds = max(calls.get("framing.feed", 0), 1)
    frames = max(stats.value.get("framing.feed", 0.0), 1.0)
    wire = cluster.transport.wire_stats()
    retries = sum(value for name, value in cluster.obs.metrics.counters()
                  if name.startswith("live.retries"))
    obs_names = stats.names("obs.")
    metrics = dict.fromkeys(names, 0.0)
    metrics.update({
        "codec.encode_us_per_msg": stats.mean_us("codec.encode"),
        "codec.decode_us_per_msg": stats.mean_us("codec.decode"),
        "codec.bytes_per_msg": (stats.value.get("codec.encode", 0.0)
                                / max(calls.get("codec.encode", 0), 1)),
        "codec.busy_us_per_op": stats.self_us(stats.names("codec.")) / ops,
        "framing.encode_us_per_msg": stats.mean_us("framing.encode"),
        "framing.feed_us_per_msg":
            1e6 * stats.total.get("framing.feed", 0.0) / frames,
        "framing.frames_per_feed": stats.value.get("framing.feed", 0.0) / feeds,
        "framing.busy_us_per_op": stats.self_us(stats.names("framing.")) / ops,
        "pool.send_queue_depth_mean": _mean(sampler.send_queue),
        "pool.send_queue_depth_max": float(max(sampler.send_queue, default=0)),
        "pool.links": float(sampler.links),
        "socket_transport.send_us_per_msg": stats.mean_us("socket_transport.send"),
        "socket_transport.self_us_per_msg":
            stats.self_us(["socket_transport.send"])
            / max(calls.get("socket_transport.send", 0), 1),
        "socket_transport.in_flight_mean": _mean(sampler.in_flight),
        "socket_transport.send_timeouts": float(wire["sends_timed_out"]),
        "inproc_transport.send_us_per_msg": stats.mean_us("inproc_transport.send"),
        "mailbox.depth_mean": _mean(sampler.backlog),
        "mailbox.depth_max": float(max(sampler.backlog, default=0)),
        "cluster.handler_us_per_op": stats.self_us(stats.names("cluster.")) / ops,
        # Every op enters the overlay with one route message at its
        # access node; each further one is a hop.
        "cluster.hops_mean": (counts.get("msg.route", 0) - ops) / ops,
        "cluster.retries": float(retries),
        "storage.handler_us_per_op": stats.self_us(stats.names("storage.")) / ops,
        "storage.fanout_msgs_per_store": counts.get("msg.store-request", 0) / stores,
        "routing.next_hop_us": stats.mean_us("routing.next_hop"),
        "routing.next_hop_calls_per_op": calls.get("routing.next_hop", 0) / ops,
        "filestore.store_us": stats.mean_us("filestore.store"),
        "filestore.get_us": stats.mean_us("filestore.get"),
        "crypto.verify_us_per_op": stats.self_us(["crypto.verify"]) / ops,
        "crypto.sign_us": stats.mean_us("crypto.sign"),
        "obs.busy_us_per_op": stats.self_us(obs_names) / ops,
        "obs.spans_per_op": calls.get("obs.record", 0) / ops,
        "loop.lag_p99_ms": 1e3 * percentile(sorted(sampler.lag), 99),
        "loop.unattributed_pct":
            100.0 * stats.request_uncovered / max(stats.request_time, 1e-12),
        "trace.overhead_pct": 100.0 * (
            traced.wall / (traced.operations / (untraced.operations / untraced.wall))
            - 1.0
        ),
    })
    metrics.update(micro)
    return metrics


async def _run(name: str, seed: int, seconds: float, trace: bool,
               per_layer_names: List[str], trace_path) -> spec.RunResult:
    workload = spec.LIVE_WORKLOADS[name]
    inputs = live_inputs(seed, workload, workload.operations(seconds))
    # Warm-up ops are verified and counted like any other: a cluster
    # that cannot store its warm-up files has failed.
    warm = Tally()
    setups: List[float] = []
    cluster: Optional[LiveStorageCluster] = None
    for _ in range(1 if trace else spec.SETUP_REPS):
        if cluster is not None:
            await cluster.shutdown()
            cluster = None
            gc.collect()
        start = perf_counter()
        cluster = await _set_up(workload, inputs, warm)
        setups.append(perf_counter() - start)
    ids = cluster.live_ids()
    tally = Tally()
    gc.collect()
    try:
        if not trace:
            region = await _drive(cluster, ids, inputs, inputs.timed, tally)
            metrics = _end_to_end(name, setups, region, tally)
        else:
            head, tail = _split(inputs.timed)
            untraced = await _drive(cluster, ids, inputs, head, tally)
            tracer = Tracer()
            sampler = Sampler(cluster.transport)
            install_live(tracer)
            sampling = asyncio.get_running_loop().create_task(sampler.run())
            try:
                traced = await _drive(cluster, ids, inputs, tail, tally)
            finally:
                sampling.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await sampling
                tracer.uninstall()
            micro = {}
            if workload.transport == "socket":
                micro = {
                    "pool.loopback_us_per_frame_256": await pool_loopback_us(256, 4000),
                    "pool.loopback_us_per_frame_64k": await pool_loopback_us(65536, 1000),
                }
            metrics = _per_layer(per_layer_names, SpanStats(tracer.spans),
                                 tracer.counts, sampler, cluster,
                                 untraced, traced, micro)
            tracer.write_jsonl(trace_path)
    finally:
        await cluster.shutdown()
    return spec.RunResult(warm.attempted + tally.attempted,
                          warm.failed + tally.failed, metrics)


def run(name: str, seed: int, seconds: float, trace: bool,
        per_layer_names: List[str], trace_path) -> spec.RunResult:
    return asyncio.run(_run(name, seed, seconds, trace, per_layer_names, trace_path))
