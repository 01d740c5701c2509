"""The chaos driver: one deterministic fault-injected run, end to end.

Builds a full PAST deployment, inserts a file population, then lets a
seeded :class:`~repro.faults.plan.FaultPlan` crash, restart, and
coordinately fail nodes while the churn engine keeps an ongoing lookup
workload running.  The :class:`~repro.faults.invariants.InvariantChecker`
sweeps the deployment after every injected fault; everything lands on
the observability bus so the run leaves a JSONL artifact CI can grep
for ``invariant-violated`` events.

Two runs with the same seed produce byte-identical reports -- every
random decision (topology, node ids, fault schedule, victims, workload)
comes from named streams under the one seed.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan, build_schedule
from repro.obs.claims import POINT_CLAIMS, record_deployment_census

# Leaf capacity for chaos runs: l=8 means floor(l/2)=4, so the C6
# boundary (4 adjacent failures) stays a tractable event in a ~30 node
# deployment while leaving enough survivors to keep routing.
CHAOS_LEAF_CAPACITY = 8


def run_chaos(
    seed: int = 0,
    nodes: int = 30,
    files: int = 12,
    duration: float = 200.0,
    replication_factor: int = 3,
    events_path: Optional[str] = None,
    traces_path: Optional[str] = None,
) -> dict:
    """One chaos run; returns a deterministic report dict.

    When *events_path* is given, the full observability event log is
    written there as JSONL (schema-validated records, one per line);
    *traces_path* likewise exports the collected span records.  The
    report embeds the final metrics snapshot and the deployment
    parameters, so the claim observatory (``python -m repro.obs.report``)
    can re-evaluate every claim verdict from the artifact alone.
    """
    # Local imports: the churn simulation itself consumes fault plans,
    # so importing it at module scope would close an import cycle
    # through the package __init__.
    from repro.core.churn_sim import ChurnSimulation
    from repro.core.files import SyntheticData
    from repro.core.network import PastNetwork
    from repro.obs.recorder import Observer
    from repro.obs.slo import evaluate_chaos_slo
    from repro.obs.timeseries import TimeSeriesRecorder
    from repro.sim.rng import RngRegistry

    observer = Observer()
    # Windowed series sampled under the sim clock: one 20-unit window
    # per sample, so two same-seed runs emit byte-identical series.
    timeseries = TimeSeriesRecorder(window=20.0)
    network = PastNetwork(
        rngs=RngRegistry(seed),
        observer=observer,
        leaf_capacity=CHAOS_LEAF_CAPACITY,
    )
    network.build(nodes, method="join", capacity_fn=lambda r: 1 << 22)
    client = network.create_client(usage_quota=1 << 40)
    handles = [
        client.insert(f"chaos-{i}", SyntheticData(i, 1500),
                      replication_factor=replication_factor)
        for i in range(files)
    ]
    checker = InvariantChecker(network, clients=[client], observer=observer)
    plan = FaultPlan(
        seed=seed,
        events=build_schedule(seed, duration, half_leaf=CHAOS_LEAF_CAPACITY // 2),
    )
    simulation = ChurnSimulation(
        network,
        handles,
        arrival_rate=0.0,
        departure_rate=0.0,
        maintenance_interval=40.0,
        lookup_interval=2.0,
        fault_plan=plan,
        checker=checker,
        sampler=lambda at: timeseries.sample(observer.metrics, at=at),
        sample_interval=20.0,
    )
    checker.check_all()  # clean baseline before any chaos
    report = simulation.run(duration)
    checker.check_all()  # final sweep after the last event settles
    record_deployment_census(network)

    result = {
        "seed": seed,
        "nodes": nodes,
        "files": files,
        "duration": duration,
        "params": {
            "final_node_count": report.final_node_count,
            "bits_per_digit": network.space.b,
            "leaf_capacity": network.pastry.leaf_capacity,
            "neighborhood_capacity": network.pastry.neighborhood_capacity,
            "replication_factor": replication_factor,
        },
        "faults_injected": dict(sorted(plan.injected.items())),
        "schedule": plan.describe()["events"],
        "invariant_checks": checker.checks_run,
        "violations": [
            {"invariant": v.invariant, "node_id": v.node_id, "detail": v.detail}
            for v in checker.violations
        ],
        "availability": round(report.availability, 4),
        "lookups_attempted": report.lookups_attempted,
        "files_lost": report.files_lost,
        "replicas_restored": report.replicas_restored,
        "final_node_count": report.final_node_count,
        "metrics": observer.metrics.snapshot(),
        # What the run *spent*: every message charged to its activity
        # category under the wire-size model (obs/cost_model).  The
        # sim-time windows cover the churned portion of the run.
        "ledger": observer.ledger.snapshot(),
        # The windowed time-series and the SLO verdict over it: both are
        # functions of the seeded schedule only, so they are part of the
        # byte-deterministic artifact contract.
        "timeseries": timeseries.snapshot(),
        "slo": evaluate_chaos_slo(
            report.availability,
            report.files_lost,
            observer.ledger.unpriced_total(),
            series_snapshot=timeseries.snapshot(),
        ),
        # Which claims this artifact can answer (repro.obs.report).
        "claims": list(POINT_CLAIMS),
    }
    if events_path is not None:
        result["events_written"] = observer.bus.write_jsonl(events_path)
    if traces_path is not None:
        result["traces_written"] = observer.traces.write_jsonl(traces_path)
    return result
