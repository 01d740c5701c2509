"""Command-line interface: ``python -m repro <command>``.

Small, self-contained demos and measurements runnable without writing
any code -- the kind of smoke tooling a downstream user reaches for
first:

* ``demo``        -- build a network, insert/lookup/reclaim, narrated;
* ``route``       -- build an overlay and trace one routed message
                     (``--json`` emits its assembled span tree);
* ``hops``        -- the E1 measurement at chosen sizes;
* ``fill``        -- the E9 insert-to-exhaustion measurement, compact;
* ``churn``       -- the E15 availability measurement for one k;
* ``metrics``     -- drive a small deployment and dump the metrics
                     registry snapshot (optionally the event log too);
* ``chaos``       -- one deterministic fault-injection run with the
                     invariant checker sweeping after every event
                     (exits nonzero on any violation);
* ``trace``       -- distributed trace of one live insert + lookup:
                     per-operation span trees (hops, fan-out, retries)
                     and the top-N slow-op log;
* ``deploy``      -- large-scale bare overlay (oracle cold start +
                     incremental churn maintenance) probed against
                     claims C1 and C2 (exits nonzero on failure);
* ``scale-curves`` -- sweep overlay sizes, fit log/power scaling
                     curves for hops, per-node state, join cost and
                     maintenance bandwidth, and gate on the asymptotic
                     claims (exits nonzero on regression).

Every command takes ``--seed`` so results are reproducible.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import List, Optional

from repro.analysis.experiments import (
    build_pastry,
    expected_hop_bound,
    fill_network,
    make_storage_network,
    sample_lookups,
)
from repro.analysis.stats import mean
from repro.analysis.tables import format_table
from repro.core.churn_sim import ChurnSimulation
from repro.core.errors import InsertRejectedError
from repro.core.files import RealData, SyntheticData
from repro.core.network import PastNetwork
from repro.core.storage_manager import StoragePolicy
from repro.obs.recorder import Observer
from repro.obs.trace_context import TraceContext
from repro.sim.rng import RngRegistry
from repro.workloads.capacities import bounded_normal_capacities
from repro.workloads.filesizes import TraceLikeSizes


def _cmd_demo(args: argparse.Namespace) -> int:
    network = PastNetwork(rngs=RngRegistry(args.seed))
    network.build(args.nodes, method="join", capacity_fn=lambda r: 1_000_000)
    print(f"built a {network.pastry.live_count()}-node PAST network")
    alice = network.create_client(usage_quota=100_000)
    handle = alice.insert("demo.txt", RealData(b"stored by the repro CLI"), 3)
    print(f"inserted fileId {handle.file_id:040x} "
          f"({len(handle.receipts)} replicas, quota used {alice.card.quota_used})")
    bob = network.create_client(usage_quota=0)
    result = bob.lookup_verbose(handle.file_id)
    print(f"lookup: {result.data.to_bytes()!r} in {result.hops} hops "
          f"from a {result.response.source}")
    credited = alice.reclaim(handle)
    print(f"reclaimed; {credited} bytes credited back")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    observer = Observer()
    network = build_pastry(args.nodes, seed=args.seed, method="oracle", observer=observer)
    rng = random.Random(args.seed)
    key = network.space.random_id(rng)
    origin = rng.choice(network.live_ids())
    ctx = TraceContext.root(rng)
    result = network.route(key, origin, trace=ctx)
    tree = observer.traces.assemble(ctx.trace_id)
    if args.json:
        document = {
            "key": key,
            "origin": origin,
            "delivered": result.delivered,
            "reason": result.reason,
            "hops": result.hops,
            "span": tree.to_dict(),
        }
        print(json.dumps(document, sort_keys=True, indent=2))
        return 0
    fmt = network.space.format_id
    # The route's hop spans carry the rule that fired at decision time,
    # one per path element.
    rules = [child.attributes["rule"] for child in tree.children]
    print(f"key    {fmt(key)}")
    print(f"origin {fmt(origin)}")
    for index, hop in enumerate(result.path):
        prefix = network.space.shared_prefix_length(hop, key)
        marker = "->" if index else "  "
        rule = f"  [{rules[index]}]" if index < len(rules) else ""
        print(f" {marker} {fmt(hop)}  (shared prefix {prefix} digits){rule}")
    print(f"delivered at the root in {result.hops} hops "
          f"(bound {expected_hop_bound(args.nodes, network.space.b)})")
    return 0


def _cmd_hops(args: argparse.Namespace) -> int:
    rows = []
    for n in args.sizes:
        network = build_pastry(n, seed=args.seed + n, method="oracle")
        rng = random.Random(n)
        hops = []
        for key, origin in sample_lookups(network, args.lookups, rng):
            result = network.route(key, origin)
            hops.append(result.hops)
        rows.append([n, round(mean(hops), 3), expected_hop_bound(n, 4)])
    print(format_table(["N", "mean hops", "bound"], rows,
                       title="routing hops vs N"))
    return 0


def _cmd_fill(args: argparse.Namespace) -> int:
    network = make_storage_network(
        args.nodes, seed=args.seed, policy=StoragePolicy(),
        capacity_fn=bounded_normal_capacities(args.capacity),
        cache_policy="none",
    )
    report = fill_network(
        network, TraceLikeSizes(), random.Random(args.seed), replication_factor=3
    )
    utilization = network.utilization()["global_utilization"]
    at95 = report.reject_ratio_at_utilization(0.95)
    print(f"inserted {report.inserted}, rejected {report.rejected}")
    print(f"final utilization {100 * utilization:.1f}%")
    print("reject ratio at 95% utilization: "
          + (f"{100 * at95:.1f}%" if at95 is not None else "never reached"))
    return 0


def _cmd_churn(args: argparse.Namespace) -> int:
    network = PastNetwork(rngs=RngRegistry(args.seed))
    network.build(args.nodes, method="join", capacity_fn=lambda r: 1 << 22)
    client = network.create_client(usage_quota=1 << 40)
    handles = [
        client.insert(f"f{i}", SyntheticData(i, 1500), replication_factor=args.k)
        for i in range(args.files)
    ]
    simulation = ChurnSimulation(
        network, handles, arrival_rate=args.rate, departure_rate=args.rate,
        maintenance_interval=40.0, lookup_interval=1.0,
    )
    report = simulation.run(args.duration)
    print(f"k={args.k}: availability {100 * report.availability:.2f}%, "
          f"{report.files_lost} files lost, {report.departures} departures, "
          f"{report.replicas_restored} replicas restored")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Drive a small instrumented deployment, then dump the registry.

    The workload deliberately touches every instrumented subsystem:
    join-built overlay, inserts (some of which divert or reject at small
    capacities), routed lookups (cache hits along the path), one node
    failure with leaf-set repair, and a reclaim.
    """
    from repro.pastry.failure import notify_leafset_of_failure

    observer = Observer()
    network = PastNetwork(rngs=RngRegistry(args.seed), observer=observer)
    network.build(args.nodes, method="join", capacity_fn=lambda r: args.capacity)
    client = network.create_client(usage_quota=1 << 40)
    handles = []
    for serial in range(args.files):
        data = SyntheticData(seed=serial, size=2_000 + (serial % 7) * 500)
        try:
            handles.append(client.insert(f"metrics-{serial}", data, 3))
        except InsertRejectedError:
            pass
    rng = random.Random(args.seed + 1)
    for key, origin in sample_lookups(network.pastry, args.routes, rng):
        network.pastry.route(key, origin)
    for handle in handles:
        client.lookup(handle.file_id)
    if handles:
        client.reclaim(handles[0])
    live = network.pastry.live_ids()
    if len(live) > 2:
        failed = live[len(live) // 2]
        network.pastry.mark_failed(failed)
        notify_leafset_of_failure(network.pastry, failed)
    print(json.dumps(observer.metrics.snapshot(), sort_keys=True, indent=2))
    if args.events:
        observer.bus.write_jsonl(args.events)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import run_chaos

    report = run_chaos(
        seed=args.seed,
        nodes=args.nodes,
        files=args.files,
        duration=args.duration,
        events_path=args.events,
        traces_path=args.traces,
    )
    print(json.dumps(report, sort_keys=True, indent=2))
    # CI greps this exit code: any invariant violation fails the run.
    return 1 if report["violations"] else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """One seeded live insert + lookup, traced end to end.

    Prints the assembled span tree per operation (routing hops, replica
    fan-out, en-route serves, retries) followed by the slow-op log --
    the top-N spans by logical duration.  ``--drop-rate`` puts the
    transport under a message-drop fault plan, so the trees show wire
    faults and the retry/reroute attempts they trigger.
    """
    import asyncio

    from repro.core.errors import DegradedError
    from repro.core.smartcard import make_uncertified_card
    from repro.faults.plan import FaultPlan
    from repro.live.storage import LiveStorageCluster

    async def drive() -> LiveStorageCluster:
        cluster = LiveStorageCluster(seed=args.seed)
        await cluster.start(args.nodes)
        if args.drop_rate > 0:
            # Installed after bootstrap: join traffic stays clean, the
            # traced operations run under fire.
            cluster.transport.faults = FaultPlan(
                seed=args.seed, drop_rate=args.drop_rate
            )
        rng = random.Random(args.seed)
        card = make_uncertified_card(
            rng, usage_quota=1 << 40, backend="insecure_fast"
        )
        data = SyntheticData(0, 1500)
        certificate = card.issue_file_certificate(
            "trace-demo", data, 3, salt=0, insertion_date=0
        )
        origins = cluster.live_ids()
        try:
            await cluster.insert(certificate, data, origin=origins[0])
            await cluster.lookup(certificate.file_id, origin=origins[-1])
        except DegradedError as degraded:
            print(f"operation degraded: {degraded}", file=sys.stderr)
        cluster.transport.faults = None
        await cluster.shutdown()
        return cluster

    cluster = asyncio.run(drive())
    collector = cluster.obs.traces
    if args.out:
        written = collector.write_jsonl(args.out)
        print(f"wrote {written} span records to {args.out}", file=sys.stderr)
    if args.json:
        document = {
            trace_id: collector.assemble(trace_id).to_dict()
            for trace_id in collector.trace_ids()
        }
        print(json.dumps(document, sort_keys=True, indent=2))
        return 0
    for trace_id in collector.trace_ids():
        print(f"trace {trace_id}")
        print(collector.assemble(trace_id).render())
    print(f"slow-op log (top {args.top} spans by logical duration):")
    for record in collector.top_spans(args.top):
        print(f"  {record.duration:7.1f}  {record.name:<14} "
              f"trace {record.trace_id[:8]} span {record.span_id}")
    return 0


def _cmd_deploy(args: argparse.Namespace) -> int:
    """Deploy a large bare overlay and watch the scale claims.

    Oracle-builds ``--nodes`` nodes (the cold start), attaches the
    incremental oracle so subsequent churn is maintained in place,
    applies ``--churn`` random joins/failures, drives ``--lookups``
    routed lookups, then evaluates claims C1 (hop bound) and C2
    (per-node state bound) over the live census.  Exits nonzero if
    either claim fails -- this is the 100k-node smoke a deployment
    operator runs first.
    """
    import time

    from repro.obs.claims import evaluate_claims, record_overlay_census, to_json_dict
    from repro.pastry.network import PastryNetwork
    from repro.pastry.nodeid import IdSpace

    observer = Observer()
    space = IdSpace(b=args.b)
    network = PastryNetwork(
        space=space,
        rngs=RngRegistry(args.seed),
        leaf_capacity=args.leaf_capacity,
        observer=observer,
    )
    start = time.perf_counter()
    network.build(args.nodes, method="oracle")
    build_seconds = time.perf_counter() - start
    print(
        f"built {network.live_count()}-node overlay (oracle) "
        f"in {build_seconds:.1f}s",
        file=sys.stderr,
    )

    network.attach_incremental_oracle()
    rng = random.Random(args.seed + 1)
    joins = failures = 0
    start = time.perf_counter()
    for _ in range(args.churn):
        if rng.random() < 0.5 or network.live_count() <= args.nodes // 2:
            network.add_node()
            joins += 1
        else:
            live = network.live_ids()
            network.mark_failed(live[rng.randrange(len(live))])
            failures += 1
    churn_seconds = time.perf_counter() - start
    if args.churn:
        print(
            f"incremental maintenance: {joins} joins + {failures} failures "
            f"in {churn_seconds:.2f}s",
            file=sys.stderr,
        )

    live = network.live_ids()
    for _ in range(args.lookups):
        key = space.random_id(rng)
        network.route(key, live[rng.randrange(len(live))], category="lookup")
    record_overlay_census(network)
    params = {
        "final_node_count": network.live_count(),
        "bits_per_digit": space.b,
        "leaf_capacity": args.leaf_capacity,
        "neighborhood_capacity": network.neighborhood_capacity,
    }
    verdicts = evaluate_claims(
        observer.metrics.snapshot(), params, claims=["C1", "C2"]
    )
    if args.json:
        document = to_json_dict(verdicts, params)
        document["build_seconds"] = round(build_seconds, 3)
        document["churn_seconds"] = round(churn_seconds, 3)
        # What the deployment spent: per-category bytes plus the five
        # most expensive nodes under the wire-size cost model.
        document["ledger"] = observer.ledger.summary(top=5)
        print(json.dumps(document, sort_keys=True, indent=2))
    else:
        for verdict in verdicts:
            status = "PASS" if verdict.passed else "FAIL"
            print(f"{verdict.claim} {status}: {verdict.observed} "
                  f"(target: {verdict.target})")
    return 0 if all(verdict.passed for verdict in verdicts) else 1


def _cmd_scale_curves(args: argparse.Namespace) -> int:
    """Sweep overlay sizes and gate on the fitted scaling curves.

    Runs :func:`repro.obs.scaling.run_scale_curves` over ``--sizes``,
    prints the curve report (markdown by default, the full artifact with
    ``--json``), optionally writes both artifacts, then evaluates the
    asymptotic claims (C1-curve, C2-curve, C11) over the fitted
    exponents.  Exits nonzero when any curve claim fails -- the same
    regression gate ``repro.obs.report`` applies to the JSON artifact.
    """
    from repro.obs.claims import evaluate_claims
    from repro.obs.scaling import render_scale_markdown, run_scale_curves

    report = run_scale_curves(
        sizes=args.sizes,
        seed=args.seed,
        lookups=args.lookups,
        joins=args.joins,
        churn_duration=args.churn_duration,
        crashes=args.crashes,
        restarts=args.restarts,
    )
    verdicts = evaluate_claims(
        report["metrics"], report["params"], claims=report["claims"]
    )
    rendered_json = json.dumps(report, sort_keys=True, indent=2) + "\n"
    rendered_md = render_scale_markdown(report, verdicts)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered_json)
        print(f"wrote {args.out}", file=sys.stderr)
    if args.md is not None:
        with open(args.md, "w", encoding="utf-8") as handle:
            handle.write(rendered_md)
        print(f"wrote {args.md}", file=sys.stderr)
    sys.stdout.write(rendered_json if args.json else rendered_md)
    failed = [verdict for verdict in verdicts if not verdict.passed]
    for verdict in failed:
        print(f"claim regression: {verdict.claim} ({verdict.observed})",
              file=sys.stderr)
    return 1 if failed else 0


def _cmd_load(args: argparse.Namespace) -> int:
    """Drive a live cluster with the 1:3 store:retrieve load harness.

    Boots ``--nodes`` storage nodes over the asyncio TCP transport
    (``--transport inproc`` falls back to the mailbox baseline), runs
    the seeded load profile, and prints per-op p50/p95/p99 latencies
    from the obs histograms.  ``--rate`` switches from the closed loop
    (``--clients`` concurrent clients) to open-loop seeded Poisson
    arrivals.

    The exit code is the SLO verdict: ``--slo p99_ms=50,degraded_pct=1``
    gates the run on explicit objectives; without the flag the default
    objective is zero degraded operations -- the same gate the old
    binary degraded-op check applied.  While the load runs, metrics are
    sampled into one windowed series recorder, one ``--scrape-interval``
    a window, feeding the verdict's multi-window burn rates: the
    cluster's registry, or, when ``--prom-out``/``--series-out`` ask for
    artifacts, the federated registry of a
    :class:`~repro.obs.telemetry.TelemetryCollector` scraping over the
    live wire.
    """
    import asyncio

    from repro.live.net import SocketTransport
    from repro.live.storage import LiveStorageCluster
    from repro.obs.events import SloBreached
    from repro.obs.slo import DEFAULT_LOAD_SLO, evaluate_load_slo, parse_slo
    from repro.obs.telemetry import TelemetryCollector
    from repro.obs.timeseries import TimeSeriesRecorder
    from repro.workloads.load_harness import LoadHarness, LoadProfile

    spec = parse_slo(args.slo) if args.slo else dict(DEFAULT_LOAD_SLO)
    profile = LoadProfile(
        clients=args.clients,
        operations=args.ops,
        arrival_rate=args.rate,
        file_size=args.file_size,
        replication_factor=args.k,
    )
    interval = args.scrape_interval

    async def watch(cluster, collector, recorder, stop: "asyncio.Event") -> None:
        """Sample every window until *stop*; the stop flag is read
        before each sample, so one final post-run sample always lands."""
        tick = 0
        while True:
            stopping = stop.is_set()
            at = tick * interval
            if collector is not None:
                await collector.scrape_all()
                collector.sample(at)
            else:
                cluster.transport.publish_wire_gauges(cluster.obs.metrics)
                recorder.sample(cluster.obs.metrics, at=at)
            tick += 1
            if stopping:
                return
            try:
                await asyncio.wait_for(stop.wait(), interval)
            except asyncio.TimeoutError:
                pass

    async def scenario():
        transport = SocketTransport() if args.transport == "socket" else None
        cluster = LiveStorageCluster(seed=args.seed, transport=transport)
        await cluster.start(args.nodes,
                            join_concurrency=args.join_concurrency)
        obs = cluster.obs
        collector = None
        if args.prom_out or args.series_out:
            collector = TelemetryCollector(cluster, window=interval)
            recorder = collector.timeseries
        else:
            recorder = TimeSeriesRecorder(window=interval)
        stop = asyncio.Event()
        watcher = asyncio.create_task(watch(cluster, collector, recorder, stop))
        harness = LoadHarness(cluster, profile, seed=args.seed)
        report = await harness.run()
        stop.set()
        await watcher
        series = recorder.snapshot()
        report.slo = evaluate_load_slo(
            spec, report, obs.ledger.unpriced_total(), series_snapshot=series
        )
        for target in report.slo["targets"]:
            if not target["ok"]:
                obs.emit(SloBreached(
                    name=target["name"],
                    objective=target["objective"],
                    observed=(target["observed"]
                              if target["observed"] is not None else -1.0),
                ))
        artifacts = {}
        if collector is not None:
            artifacts["prom"] = collector.to_prometheus()
            artifacts["series"] = series
        traces = obs.traces
        stats = {
            "transport": args.transport,
            "bytes_sent": getattr(cluster.transport, "bytes_sent", None),
            "messages_sent": cluster.transport.messages_sent,
            # The collector's bounded window (obs/trace_context.py):
            # what a long run keeps of its traces, and what it dropped.
            "trace_spans_retained": len(traces),
            "trace_spans_evicted": traces.evicted_spans,
            "trace_traces_retained": len(traces.trace_ids()),
            "trace_traces_evicted": traces.evicted_traces,
        }
        await cluster.shutdown()
        return report, stats, artifacts

    report, stats, artifacts = asyncio.run(scenario())
    if args.prom_out is not None:
        with open(args.prom_out, "w", encoding="utf-8") as handle:
            handle.write(artifacts["prom"])
        print(f"wrote {args.prom_out}", file=sys.stderr)
    if args.series_out is not None:
        with open(args.series_out, "w", encoding="utf-8") as handle:
            json.dump(artifacts["series"], handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"wrote {args.series_out}", file=sys.stderr)
    if args.json:
        document = json.loads(report.to_json())
        document["transport"] = stats
        rendered = json.dumps(document, sort_keys=True, indent=2)
    else:
        rendered = report.format_text()
        if stats["bytes_sent"] is not None:
            rendered += (f"\n  wire: {stats['messages_sent']} messages, "
                         f"{stats['bytes_sent']} frame bytes")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    print(rendered)
    if not report.slo["ok"]:
        missed = [target["name"] for target in report.slo["targets"]
                  if not target["ok"]]
        print(f"SLO breached: {', '.join(missed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live ops console: watch a socket cluster while load runs.

    Boots a storage cluster, starts the load harness in the background,
    and renders one console frame per ``--interval``: federated message
    counters, latency percentiles, and per-node health rows -- all read
    over the wire through the telemetry message kinds, exactly what an
    external operator's console would see.  Stops after ``--frames``
    frames or when the load completes, whichever is first.
    """
    import asyncio

    from repro.live.net import SocketTransport
    from repro.live.storage import LiveStorageCluster
    from repro.obs.telemetry import TelemetryCollector, render_console
    from repro.workloads.load_harness import LoadHarness, LoadProfile

    profile = LoadProfile(clients=args.clients, operations=args.ops)

    async def scenario():
        transport = SocketTransport() if args.transport == "socket" else None
        cluster = LiveStorageCluster(seed=args.seed, transport=transport)
        await cluster.start(args.nodes,
                            join_concurrency=args.join_concurrency)
        collector = TelemetryCollector(cluster)
        harness = LoadHarness(cluster, profile, seed=args.seed)
        load_task = asyncio.create_task(harness.run())
        clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
        frame = 0
        try:
            while frame < args.frames:
                finishing = load_task.done()
                await collector.scrape_all()
                health = await collector.probe_all()
                text = render_console(collector, health, frame)
                print(clear + text if clear else text + "\n", flush=True)
                frame += 1
                if finishing or frame >= args.frames:
                    break
                await asyncio.sleep(args.interval)
        finally:
            report = await load_task
            await cluster.shutdown()
        return report, frame

    report, frames = asyncio.run(scenario())
    print(f"rendered {frames} frames; load: {report.total_operations} ops, "
          f"{sum(report.errors.values())} degraded", file=sys.stderr)
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    """Probe every node of a live cluster for a structured health verdict.

    Boots the cluster, sends each node a ``health-probe`` over the wire,
    and prints the verdicts (``--json`` for the machine-readable block).
    Exit code 0 iff every node reports healthy -- the CI gate.
    """
    import asyncio

    from repro.live.net import SocketTransport
    from repro.live.storage import LiveStorageCluster
    from repro.obs.telemetry import TelemetryCollector

    async def scenario():
        transport = SocketTransport() if args.transport == "socket" else None
        cluster = LiveStorageCluster(seed=args.seed, transport=transport)
        await cluster.start(args.nodes,
                            join_concurrency=args.join_concurrency)
        collector = TelemetryCollector(cluster)
        verdict = await collector.probe_all()
        await cluster.shutdown()
        return verdict

    verdict = asyncio.run(scenario())
    if args.json:
        print(json.dumps(verdict, sort_keys=True, indent=2))
    else:
        print(f"cluster: {'HEALTHY' if verdict['healthy'] else 'DEGRADED'} "
              f"({len(verdict['nodes'])} nodes probed)")
        for node in verdict["nodes"]:
            status = "ok  " if node.get("healthy") else "FAIL"
            checks = node.get("checks", {})
            failed = [name for name, ok in sorted(checks.items()) if not ok]
            detail = f" failed: {', '.join(failed)}" if failed else ""
            print(f"  [{status}] {node['node'][:16]} "
                  f"mailbox={node.get('mailbox_depth', 0)}"
                  f"/{node.get('mailbox_limit', 0)} "
                  f"inflight={node.get('in_flight', 0)} "
                  f"resynced={node.get('resynced_bytes', 0)}{detail}")
    return 0 if verdict["healthy"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PAST (HotOS 2001) reproduction -- demos and measurements",
    )
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="insert/lookup/reclaim walkthrough")
    demo.add_argument("--nodes", type=int, default=64)
    demo.set_defaults(handler=_cmd_demo)

    route = commands.add_parser("route", help="trace one routed message")
    route.add_argument("--nodes", type=int, default=500)
    route.add_argument("--json", action="store_true",
                       help="emit the route's span tree as JSON")
    route.set_defaults(handler=_cmd_route)

    hops = commands.add_parser("hops", help="mean routing hops vs N")
    hops.add_argument("--sizes", type=int, nargs="+", default=[256, 1024, 4096])
    hops.add_argument("--lookups", type=int, default=500)
    hops.set_defaults(handler=_cmd_hops)

    fill = commands.add_parser("fill", help="storage utilization to exhaustion")
    fill.add_argument("--nodes", type=int, default=60)
    fill.add_argument("--capacity", type=int, default=8_000_000,
                      help="mean node capacity in bytes")
    fill.set_defaults(handler=_cmd_fill)

    churn = commands.add_parser("churn", help="availability under churn")
    churn.add_argument("--nodes", type=int, default=50)
    churn.add_argument("--files", type=int, default=25)
    churn.add_argument("--k", type=int, default=3)
    churn.add_argument("--rate", type=float, default=0.06)
    churn.add_argument("--duration", type=float, default=300.0)
    churn.set_defaults(handler=_cmd_churn)

    metrics = commands.add_parser(
        "metrics", help="drive a small deployment, dump the metrics registry"
    )
    metrics.add_argument("--nodes", type=int, default=24)
    metrics.add_argument("--files", type=int, default=12)
    metrics.add_argument("--routes", type=int, default=40)
    metrics.add_argument("--capacity", type=int, default=200_000,
                         help="per-node capacity in bytes")
    metrics.add_argument("--events", type=str, default=None,
                         help="also write the event log (JSONL) to this path")
    metrics.set_defaults(handler=_cmd_metrics)

    chaos = commands.add_parser(
        "chaos", help="deterministic fault-injection run with invariant sweeps"
    )
    # Also accepted after the subcommand (``repro chaos --seed 7``);
    # SUPPRESS keeps the global --seed value when it is not repeated.
    chaos.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    chaos.add_argument("--nodes", type=int, default=30)
    chaos.add_argument("--files", type=int, default=12)
    chaos.add_argument("--duration", type=float, default=200.0)
    chaos.add_argument("--events", type=str, nargs="?", const="chaos-events.jsonl",
                       default=None,
                       help="write the event log (JSONL) to this path "
                            "(default chaos-events.jsonl when given bare)")
    chaos.add_argument("--traces", type=str, nargs="?", const="chaos-traces.jsonl",
                       default=None,
                       help="write collected span records (JSONL) to this "
                            "path (default chaos-traces.jsonl when given bare)")
    chaos.set_defaults(handler=_cmd_chaos)

    trace = commands.add_parser(
        "trace",
        help="distributed trace of one live insert + lookup (span trees "
             "+ slow-op log)",
    )
    trace.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    trace.add_argument("--nodes", type=int, default=12)
    trace.add_argument("--drop-rate", type=float, default=0.0,
                       help="message drop probability during the traced "
                            "operations (exercises retries/reroutes)")
    trace.add_argument("--top", type=int, default=10,
                       help="slow-op log length")
    trace.add_argument("--json", action="store_true",
                       help="emit the span trees as JSON")
    trace.add_argument("--out", type=str, default=None,
                       help="also export the flat span records (JSONL)")
    trace.set_defaults(handler=_cmd_trace)

    deploy = commands.add_parser(
        "deploy",
        help="large-scale overlay deployment: oracle build, incremental "
             "churn, C1/C2 claim probes",
    )
    deploy.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    deploy.add_argument("--nodes", type=int, default=10_000,
                        help="overlay size (100000 is the paper's scale)")
    deploy.add_argument("--b", type=int, default=4,
                        help="bits per digit (2^b routing-table columns)")
    deploy.add_argument("--leaf-capacity", type=int, default=32)
    deploy.add_argument("--churn", type=int, default=200,
                        help="random joins/failures applied incrementally "
                             "after the build")
    deploy.add_argument("--lookups", type=int, default=500)
    deploy.add_argument("--json", action="store_true",
                        help="emit the claim verdicts and timings as JSON")
    deploy.set_defaults(handler=_cmd_deploy)

    curves = commands.add_parser(
        "scale-curves",
        help="N-sweep scaling observatory: fit log/power curves for "
             "hops, state, join cost and maintenance bandwidth",
    )
    curves.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    curves.add_argument("--sizes", type=int, nargs="+",
                        default=[512, 1024, 2048, 4096, 8192],
                        help="overlay sizes to sweep (>= 4 for the "
                             "curve claims to fit)")
    curves.add_argument("--lookups", type=int, default=400,
                        help="routed lookups measured per size")
    curves.add_argument("--joins", type=int, default=16,
                        help="protocol joins measured per size")
    curves.add_argument("--churn-duration", type=float, default=60.0,
                        help="sim-seconds of seeded churn per size")
    curves.add_argument("--crashes", type=int, default=6)
    curves.add_argument("--restarts", type=int, default=3)
    curves.add_argument("--json", action="store_true",
                        help="print the full JSON artifact instead of "
                             "the markdown report")
    curves.add_argument("--out", type=str, default=None,
                        help="write the JSON artifact here (observatory-"
                             "ready: repro.obs.report --report <out>)")
    curves.add_argument("--md", type=str, default=None,
                        help="write the markdown report here")
    curves.set_defaults(handler=_cmd_scale_curves)

    load = commands.add_parser(
        "load",
        help="load-test a live cluster over real sockets: 1:3 "
             "store:retrieve mix, p50/p95/p99 latency report",
    )
    load.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    load.add_argument("--nodes", type=int, default=32)
    load.add_argument("--clients", type=int, default=8,
                      help="closed-loop concurrent clients")
    load.add_argument("--ops", type=int, default=200,
                      help="total operations (stores + retrieves)")
    load.add_argument("--rate", type=float, default=0.0,
                      help="> 0: open-loop Poisson arrivals at this "
                           "rate (ops/s) instead of the closed loop")
    load.add_argument("--file-size", type=int, default=2048,
                      help="bytes of real content per stored file")
    load.add_argument("--k", type=int, default=3,
                      help="replication factor for stores")
    load.add_argument("--join-concurrency", type=int, default=8)
    load.add_argument("--transport", choices=["socket", "inproc"],
                      default="socket")
    load.add_argument("--json", action="store_true",
                      help="emit the latency report as JSON")
    load.add_argument("--out", type=str, default=None,
                      help="also write the report to this path")
    load.add_argument("--slo", type=str, default=None,
                      help="gate the run on objectives, e.g. "
                           "p99_ms=50,degraded_pct=1 (default: "
                           "degraded_pct=0); exits nonzero on breach")
    load.add_argument("--scrape-interval", type=float, default=0.5,
                      help="windowed-series sample interval in seconds")
    load.add_argument("--prom-out", type=str, default=None,
                      help="write the federated Prometheus exposition "
                           "(scraped over the wire) to this path")
    load.add_argument("--series-out", type=str, default=None,
                      help="write the federated windowed series (JSON) "
                           "to this path")
    load.set_defaults(handler=_cmd_load)

    top = commands.add_parser(
        "top",
        help="live ops console: scrape a running cluster over the wire "
             "while the load harness drives it",
    )
    top.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    top.add_argument("--nodes", type=int, default=8)
    top.add_argument("--clients", type=int, default=4)
    top.add_argument("--ops", type=int, default=200,
                     help="load operations driven while the console runs")
    top.add_argument("--frames", type=int, default=20,
                     help="console frames to render before exiting")
    top.add_argument("--interval", type=float, default=0.5,
                     help="seconds between frames (= the series window)")
    top.add_argument("--join-concurrency", type=int, default=8)
    top.add_argument("--transport", choices=["socket", "inproc"],
                     default="socket")
    top.set_defaults(handler=_cmd_top)

    health = commands.add_parser(
        "health",
        help="probe every live node for a structured health verdict "
             "(exit 0 iff all healthy)",
    )
    health.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    health.add_argument("--nodes", type=int, default=8)
    health.add_argument("--join-concurrency", type=int, default=8)
    health.add_argument("--transport", choices=["socket", "inproc"],
                        default="socket")
    health.add_argument("--json", action="store_true",
                        help="emit the verdict block as JSON")
    health.set_defaults(handler=_cmd_health)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
