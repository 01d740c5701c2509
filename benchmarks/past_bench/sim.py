"""``sim_deploy``: one deployment through the simulator, ``live/`` untouched.

Set-up builds a 4096-node ``PastNetwork`` by oracle and attaches 16
clients; then five separately timed phases -- bare routes, inserts
(replica diversion runs), Zipf lookups (caching runs), protocol joins,
and incremental-oracle churn.  The observer stays off, as every
experiment in EXPERIMENTS.md runs it.
"""

from __future__ import annotations

import gc
import resource
import statistics
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.client import FileHandle
from repro.core.errors import PastError
from repro.core.files import SyntheticData
from repro.core.network import PastNetwork
from repro.pastry.network import PastryNetwork
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngRegistry
from repro.workloads.capacities import bounded_normal_capacities

from benchmarks.past_bench import spec
from benchmarks.past_bench.inputs import SimInputs, sim_inputs
from benchmarks.past_bench.report import block_percentile, blocks_of, fast_block
from benchmarks.past_bench.tracing import SpanStats, Tracer, install_sim

#: Sizes of the two isolated micros of the traced run.
STATE_PROBE_NODES = 1024
ENGINE_EVENTS = 250_000


@dataclass
class Phase:
    """Operations and wall of one phase, split where a traced run starts
    tracing (an untraced run has everything in the head)."""

    head_ops: int = 0
    head_wall: float = 0.0
    #: Operations per second of each block of the head.
    head_rates: List[float] = field(default_factory=list)
    tail_ops: int = 0
    tail_wall: float = 0.0

    @property
    def rate(self) -> float:
        """Fast-block rate of the untraced part."""
        return fast_block(self.head_rates, higher_is_faster=True)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    latencies: Dict[str, List[float]] = field(
        default_factory=lambda: {"insert": [], "lookup": []}
    )


def _set_up(seed: int) -> Tuple[PastNetwork, list]:
    network = PastNetwork(rngs=RngRegistry(seed))
    network.build(spec.SIM_NODES, method="oracle",
                  capacity_fn=bounded_normal_capacities(spec.SIM_MEAN_CAPACITY))
    clients = [network.create_client(usage_quota=1 << 50)
               for _ in range(spec.SIM_CLIENTS)]
    return network, clients


def _run_phase(items: Sequence, body: Callable[[Sequence], None],
               tracer: Optional[Tracer], sliced: bool = True) -> Phase:
    """Time ``body(items)``.  Traced: the head runs untraced, the last
    ``TRACED_SHARE`` with the wrappers in (all of it when not *sliced*)."""
    phase = Phase()
    cut = len(items)
    if tracer is not None:
        cut = len(items) - round(len(items) * spec.TRACED_SHARE) if sliced else 0
    gc.collect()
    for block in blocks_of(items[:cut]):
        start = perf_counter()
        body(block)
        wall = perf_counter() - start
        phase.head_wall += wall
        phase.head_ops += len(block)
        phase.head_rates.append(len(block) / wall)
    if cut < len(items):
        install_sim(tracer)
        try:
            start = perf_counter()
            body(items[cut:])
            phase.tail_wall = perf_counter() - start
        finally:
            tracer.uninstall()
        phase.tail_ops = len(items) - cut
    return phase


def _check_roots(pastry: PastryNetwork, pairs, outcome: Outcome) -> None:
    """Every (key, origin) route must end at the key's global root."""
    for key, origin in pairs:
        outcome.attempted += 1
        result = pastry.route(key, origin)
        if not result.delivered or result.path[-1] != pastry.global_root(key):
            outcome.failed += 1


def state_bytes_per_node(seed: int) -> float:
    """tracemalloc footprint of an oracle-built overlay, per node."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        probe = PastryNetwork(rngs=RngRegistry(seed))
        probe.build(STATE_PROBE_NODES, method="oracle")
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (after - before) / STATE_PROBE_NODES


def engine_events_per_s() -> float:
    """Bulk-scheduled events through ``SimulationEngine`` (as
    ``perf_suite`` does it: ~1000 distinct timestamps)."""
    engine = SimulationEngine()
    fired = [0]

    def tick() -> None:
        fired[0] += 1

    start = perf_counter()
    engine.schedule_many((float(i % 1000), tick) for i in range(ENGINE_EVENTS))
    engine.run()
    elapsed = perf_counter() - start
    if fired[0] != ENGINE_EVENTS:
        raise RuntimeError("engine micro: events were lost")
    return ENGINE_EVENTS / elapsed


@dataclass
class Measured:
    """Everything the set-up and the five phases produced."""

    setups: List[float]
    network: PastNetwork
    outcome: Outcome
    phases: Dict[str, Phase]
    hops_mean: float
    insert_messages: int
    join_messages: int
    handles: List[Optional[FileHandle]]
    #: Span ids of the traced insert and lookup tails: ``[first, last)``.
    client_spans: Tuple[int, int]


def _measure(seed: int, sizes: spec.SimSizes, inputs: SimInputs,
             tracer: Optional[Tracer]) -> Measured:
    outcome = Outcome()
    phases: Dict[str, Phase] = {}
    setups: List[float] = []
    network = clients = None
    for _ in range(1 if tracer else spec.SETUP_REPS):
        network = clients = None
        gc.collect()
        if tracer:
            install_sim(tracer)  # for pastry.oracle.build_s
        try:
            start = perf_counter()
            network, clients = _set_up(seed)
            setups.append(perf_counter() - start)
        finally:
            if tracer:
                tracer.uninstall()
    pastry = network.pastry
    ids = pastry.live_ids()

    # --- route ------------------------------------------------------- #
    _check_roots(pastry, [(key, ids[origin]) for key, origin
                          in inputs.routes[:spec.SIM_ROUTE_CHECKS]], outcome)
    path_nodes = [0]

    def route_body(items) -> None:
        route = pastry.route
        total = 0
        for key, origin in items:
            total += len(route(key, ids[origin]).path)
        path_nodes[0] += total

    phases["route"] = _run_phase(inputs.routes, route_body, tracer)
    hops_mean = (path_nodes[0] - len(inputs.routes)) / len(inputs.routes)

    # --- insert ------------------------------------------------------ #
    files = [(clients[client], f"bench-{seed}-{index}", SyntheticData(index, size))
             for index, (client, size) in enumerate(inputs.inserts)]
    handles: List[Optional[FileHandle]] = []
    insert_counter = pastry.stats.counter("messages.insert")
    insert_messages = insert_counter.value
    first_client_span = len(tracer.spans) if tracer else 0

    def insert_body(items) -> None:
        samples = outcome.latencies["insert"]
        for client, name, data in items:
            outcome.attempted += 1
            start = perf_counter()
            try:
                handle = client.insert(name, data, spec.REPLICATION)
            except PastError:
                handle = None
            elapsed = perf_counter() - start
            if handle is not None and len(handle.receipts) == spec.REPLICATION:
                samples.append(elapsed)
            else:
                handle = None
                outcome.failed += 1
            handles.append(handle)

    phases["insert"] = _run_phase(files, insert_body, tracer)
    insert_messages = insert_counter.value - insert_messages

    # --- lookup ------------------------------------------------------ #
    def lookup_body(items) -> None:
        samples = outcome.latencies["lookup"]
        for client, index in items:
            outcome.attempted += 1
            handle = handles[index]
            data = None
            start = perf_counter()
            if handle is not None:
                try:
                    data = clients[client].lookup(handle.file_id)
                except PastError:
                    data = None
            elapsed = perf_counter() - start
            if data is not None and data == files[index][2]:
                samples.append(elapsed)
            else:
                outcome.failed += 1

    phases["lookup"] = _run_phase(inputs.lookups, lookup_body, tracer)
    client_spans = (first_client_span, len(tracer.spans) if tracer else 0)

    # --- join -------------------------------------------------------- #
    join_counter = pastry.stats.counter("messages.join")
    join_messages = join_counter.value

    def join_body(items) -> None:
        for _ in items:
            network.add_storage_node(spec.SIM_MEAN_CAPACITY, join=True)

    phases["join"] = _run_phase(range(sizes.joins), join_body, tracer, sliced=False)
    join_messages = join_counter.value - join_messages

    # --- churn ------------------------------------------------------- #
    pastry.attach_incremental_oracle()

    def churn_body(items) -> None:
        for victim in items:
            if victim is None:
                pastry.add_node()
            else:
                live = pastry.live_ids()
                pastry.mark_failed(live[int(victim * len(live))])

    # Arrivals and failures alternate, so every block holds both.
    churn_events = [event for victim in inputs.churn_victims
                    for event in (None, victim)]
    phases["churn"] = _run_phase(churn_events, churn_body, tracer, sliced=False)
    live = pastry.live_ids()
    _check_roots(pastry, [(key, live[int(origin * len(live))])
                          for key, origin in inputs.checks_after_churn], outcome)
    return Measured(setups, network, outcome, phases, hops_mean, insert_messages,
                    join_messages, handles, client_spans)


def _end_to_end(measured: Measured) -> Dict[str, float]:
    phases = measured.phases
    inserts = measured.outcome.latencies["insert"]
    lookups = measured.outcome.latencies["lookup"]
    stored = [handle for handle in measured.handles if handle is not None]
    user_bytes = sum(handle.certificate.size for handle in stored)
    replica_bytes = sum(node.store.used for node in measured.network.past_nodes())
    return {
        "setup_s": statistics.median(measured.setups),
        # Client ops over the time the two storage phases take at their
        # fast-block rates.
        "ops_per_s": (len(inserts) + len(lookups)) / (
            phases["insert"].head_ops / phases["insert"].rate
            + phases["lookup"].head_ops / phases["lookup"].rate
        ),
        "store_p50_ms": 1e3 * block_percentile(inserts, 50),
        "store_p99_ms": 1e3 * block_percentile(inserts, 99),
        "retrieve_p50_ms": 1e3 * block_percentile(lookups, 50),
        "retrieve_p99_ms": 1e3 * block_percentile(lookups, 99),
        # No wire in the simulator: the k-fold cost shows as replica
        # bytes held per user byte and overlay messages per insert
        # (route hops, store fan-out, diversions).  Lookup messages are
        # left out: under Zipf they swing 3-4% from seed to seed with
        # which files turn out hot.
        "wire_bytes_per_user_byte": replica_bytes / max(user_bytes, 1),
        "wire_msgs_per_op": measured.insert_messages / len(measured.handles),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_route_per_s": phases["route"].rate,
        "sim_insert_per_s": phases["insert"].rate,
        "sim_lookup_per_s": phases["lookup"].rate,
        "sim_join_per_s": phases["join"].rate,
        "sim_churn_per_s": phases["churn"].rate,
    }


def _per_layer(names: List[str], measured: Measured, tracer: Tracer,
               seed: int) -> Dict[str, float]:
    """Every declared per-layer metric; the ``live/`` ones stay 0."""
    everything = SpanStats(tracer.spans)
    # Per-op figures count the client ops only: set-up, joins and churn
    # also sign, verify and route.
    client = SpanStats(tracer.spans, *measured.client_spans)
    ops = max(client.requests, 1)
    sliced = [measured.phases[name] for name in ("route", "insert", "lookup")]
    untraced_wall = sum(phase.tail_ops / (phase.head_ops / phase.head_wall)
                        for phase in sliced)
    nodes = measured.network.past_nodes()
    cache_hits = sum(node.cache.hits for node in nodes)
    cache_reads = cache_hits + sum(node.cache.misses for node in nodes)
    receipts = [receipt for handle in measured.handles if handle is not None
                for receipt in handle.receipts]
    metrics = dict.fromkeys(names, 0.0)
    metrics.update({
        "routing.next_hop_us": everything.mean_us("routing.next_hop"),
        "routing.next_hop_calls_per_op": client.calls.get("routing.next_hop", 0) / ops,
        "pastry.network.route_us": everything.mean_us("pastry.network.route"),
        "pastry.network.hops_mean": measured.hops_mean,
        "pastry.join.join_ms": everything.mean_us("pastry.join.join") / 1e3,
        "pastry.join.msgs_per_join":
            measured.join_messages / measured.phases["join"].tail_ops,
        "pastry.oracle.build_s": everything.total.get("pastry.oracle.build", 0.0),
        "pastry.oracle.event_ms": everything.mean_us("pastry.oracle.event") / 1e3,
        "pastry.state_bytes_per_node": state_bytes_per_node(seed),
        "core.client.insert_us": everything.mean_us("core.client.insert"),
        "core.client.lookup_us": everything.mean_us("core.client.lookup"),
        "core.cache.hit_ratio": cache_hits / max(cache_reads, 1),
        "core.node.diversion_ratio":
            sum(receipt.diverted for receipt in receipts) / max(len(receipts), 1),
        "core.node.reject_ratio": measured.network.insert_rejection_rate(),
        "filestore.store_us": everything.mean_us("filestore.store"),
        "filestore.get_us": everything.mean_us("filestore.get"),
        "crypto.verify_us_per_op": client.self_us(["crypto.verify"]) / ops,
        "crypto.sign_us": everything.mean_us("crypto.sign"),
        "obs.busy_us_per_op": client.self_us(client.names("obs.")) / ops,
        "obs.spans_per_op": client.calls.get("obs.record", 0) / ops,
        "sim.engine.events_per_s": engine_events_per_s(),
        "loop.unattributed_pct":
            100.0 * client.request_uncovered / max(client.request_time, 1e-12),
        "trace.overhead_pct":
            100.0 * (sum(phase.tail_wall for phase in sliced) / untraced_wall - 1.0),
    })
    return metrics


def run(seed: int, seconds: float, trace: bool, per_layer_names: List[str],
        trace_path) -> spec.RunResult:
    sizes = spec.SimSizes.for_seconds(seconds)
    tracer = Tracer() if trace else None
    measured = _measure(seed, sizes, sim_inputs(seed, sizes), tracer)
    if tracer is None:
        metrics = _end_to_end(measured)
    else:
        metrics = _per_layer(per_layer_names, measured, tracer, seed)
        tracer.write_jsonl(trace_path)
    return spec.RunResult(measured.outcome.attempted, measured.outcome.failed, metrics)
