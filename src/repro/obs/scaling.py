"""The scale-curve observatory: prove the asymptotics, not a point.

PAST's economy claims are statements about *growth*: routing cost and
per-node state are O(log N), and the maintenance traffic that keeps the
overlay alive under churn stays sublinear per node.  A single-N check
(the point probes in :mod:`repro.obs.claims`) cannot distinguish
``log N`` from ``N``; this module can.  Following the scalability-
analysis methodology of Kong et al. (PAPERS.md), it

1. sweeps overlays across a size ladder (512 -> 65536 locally,
   smoke-scale in CI), measuring at each N: mean lookup hops, per-node
   state entries/bytes, the arrival protocol's join cost, and the
   maintenance bandwidth (repair + leaf-stabilize bytes per node per
   sim-second) under a seeded :class:`~repro.faults.plan.FaultPlan`
   churn segment with keep-alive probing;
2. fits ``y = a.log2(N) + b`` and power-law ``y = c.N^p`` models to
   each series, reporting residuals (a logarithmic quantity fits the
   log model tightly and shows a power-law exponent near zero);
3. stamps the fitted coefficients as ``scaling.*`` gauges so the claim
   observatory (``python -m repro.obs.report``) gates on the curves
   (claims C1-curve / C2-curve / C11).

Two chains keep the sweep honest *and* cheap:

* the **structure chain** is one overlay grown size-to-size through PR
  6's incremental oracle (``attach_incremental_oracle``), so measuring
  5 sizes costs ~one max-N build instead of five; hops and state are
  measured read-only at each rung (routing mutates nothing), so the
  oracle's canonical-state invariant holds across the whole climb;
* the **cost probes** (join protocol, churn repair) mutate node state,
  so each N gets a fresh oracle build plus its own
  :class:`~repro.obs.ledger.CostLedger` -- protocol perturbations never
  leak into the next rung.

Everything draws from named RNG streams under one seed: two runs with
the same seed and sizes emit byte-identical JSON.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.obs.cost_model import (
    CATEGORY_LEAF_STABILIZE,
    CATEGORY_REPAIR,
    state_bytes,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Observer

#: The local default ladder; CI smoke passes --sizes 256..2048.
DEFAULT_SIZES = (512, 1024, 2048, 4096, 8192)

KEEPALIVE_INTERVAL = 10.0


# ---------------------------------------------------------------------- #
# model fitting (stdlib only; closed-form least squares)
# ---------------------------------------------------------------------- #

def _least_squares(xs: Sequence[float], ys: Sequence[float]):
    """Slope/intercept minimising squared error of ``y = slope*x + b``."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var_x = sum((x - mean_x) ** 2 for x in xs)
    if var_x == 0:
        return 0.0, mean_y
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = cov / var_x
    return slope, mean_y - slope * mean_x


def _residual_stats(ys: Sequence[float], predicted: Sequence[float]) -> Dict[str, float]:
    n = len(ys)
    ss_res = sum((y - p) ** 2 for y, p in zip(ys, predicted))
    mean_y = sum(ys) / n
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return {
        "rmse": round(math.sqrt(ss_res / n), 6),
        "r2": round(r2, 6),
        "residuals": [round(y - p, 6) for y, p in zip(ys, predicted)],
    }


def fit_log(sizes: Sequence[int], ys: Sequence[float]) -> dict:
    """Fit ``y = a * log2(N) + b``; returns coefficients + residuals."""
    xs = [math.log2(n) for n in sizes]
    a, b = _least_squares(xs, ys)
    predicted = [a * x + b for x in xs]
    fit = {"a": round(a, 6), "b": round(b, 6)}
    fit.update(_residual_stats(ys, predicted))
    return fit


def fit_power(sizes: Sequence[int], ys: Sequence[float]) -> Optional[dict]:
    """Fit ``y = c * N^p`` by least squares in log-log space.

    Returns None when any sample is non-positive (the power model is
    undefined there); residuals are reported in linear space, where the
    curve is actually read.
    """
    if any(y <= 0 for y in ys):
        return None
    xs = [math.log(n) for n in sizes]
    ls = [math.log(y) for y in ys]
    p, ln_c = _least_squares(xs, ls)
    c = math.exp(ln_c)
    predicted = [c * n ** p for n in sizes]
    fit = {"c": round(c, 6), "exponent": round(p, 6)}
    fit.update(_residual_stats(ys, predicted))
    return fit


def _fit_both(sizes: Sequence[int], ys: Sequence[float]) -> dict:
    return {"log": fit_log(sizes, ys), "power": fit_power(sizes, ys)}


# ---------------------------------------------------------------------- #
# the sweep
# ---------------------------------------------------------------------- #

def _measure_structure(network, obs: Observer, lookups: int, key_rng) -> dict:
    """Read-only probes at the current size: mean hops + state census."""
    from repro.obs.claims import record_overlay_census

    hops = obs.metrics.histogram("route.hops", category="lookup")
    hops.reset()
    ids = network.live_ids()
    random_id = network.space.random_id
    route = network.route
    for _ in range(lookups):
        key = random_id(key_rng)
        origin = ids[key_rng.randrange(len(ids))]
        route(key, origin, category="lookup")
    hop_summary = hops.summary()
    record_overlay_census(network)
    entries = obs.metrics.histogram("census.state_entries").summary()
    return {
        "mean_hops": round(hop_summary["mean"], 6),
        "p95_hops": round(hop_summary["p95"], 6),
        "state_entries_mean": round(entries["mean"], 6),
        "state_entries_max": int(entries["max"]),
        "state_bytes_per_node": round(state_bytes(entries["mean"]), 1),
    }


def _measure_costs(
    n: int,
    seed: int,
    joins: int,
    churn_duration: float,
    crashes: int,
    restarts: int,
) -> dict:
    """Mutating probes at one size, on a dedicated overlay + ledger."""
    from repro.faults.plan import CRASH, RESTART, FaultPlan, build_schedule
    from repro.pastry.failure import KeepAliveProtocol, purge_failed, recover_node
    from repro.pastry.join import join_network
    from repro.pastry.network import PastryNetwork
    from repro.sim.engine import SimulationEngine
    from repro.sim.rng import RngRegistry, stable_seed

    obs = Observer()
    network = PastryNetwork(
        rngs=RngRegistry(stable_seed("scale-costs", seed, n)), observer=obs
    )
    network.build(n, method="oracle")
    ledger = obs.ledger

    # --- join cost: the real arrival protocol, measured per join ------- #
    for _ in range(joins):
        node = network.add_node()
        contact = network._nearest_live_contact(node)
        join_network(network, node, contact)
    join_summary = obs.metrics.histogram("join.messages").summary()
    join_bytes = ledger.category_bytes("join")

    # --- maintenance bandwidth under seeded churn ---------------------- #
    # Keep-alive probing plus crash/restart repair traffic, on the
    # discrete-event engine.  Coordinated adjacent failures are excluded:
    # they need a full stabilize round, whose cost model is a different
    # experiment.
    engine = SimulationEngine()
    obs.clock = lambda: engine.now
    maintenance_before = (
        ledger.category_bytes(CATEGORY_REPAIR)
        + ledger.category_bytes(CATEGORY_LEAF_STABILIZE)
    )
    plan = FaultPlan(
        seed=stable_seed("scale-faults", seed, n),
        events=build_schedule(
            stable_seed("scale-faults", seed, n),
            churn_duration,
            half_leaf=network.leaf_capacity // 2,
            crashes=crashes,
            restarts=restarts,
            adjacent_boundary=0,
            adjacent_safe=0,
        ),
    )
    min_live = network.leaf_capacity + 1

    def apply(event) -> None:
        live = network.live_ids()
        if event.kind == CRASH:
            if len(live) <= min_live:
                return
            victim = plan.pick_target(live)
            if victim is None or not network.is_live(victim):
                return
            network.mark_failed(victim)
            purge_failed(network, victim)
            plan.count(CRASH)
        elif event.kind == RESTART:
            dead = sorted(
                nid for nid, node in network.nodes.items() if not node.alive
            )
            victim = plan.pick_target(dead)
            if victim is None or network.is_live(victim):
                return
            recover_node(network, victim)
            plan.count(RESTART)

    engine.schedule_many_at(
        (event.time, lambda ev=event: apply(ev)) for event in plan.events
    )
    keepalive = KeepAliveProtocol(
        network, engine, interval=KEEPALIVE_INTERVAL,
        timeout=3 * KEEPALIVE_INTERVAL,
    )
    keepalive.start()
    engine.run(until=churn_duration)
    keepalive.stop()
    obs.clock = None

    maintenance = (
        ledger.category_bytes(CATEGORY_REPAIR)
        + ledger.category_bytes(CATEGORY_LEAF_STABILIZE)
        - maintenance_before
    )
    snapshot = ledger.snapshot()
    return {
        "join_messages_mean": round(join_summary["mean"], 6),
        "join_bytes_per_join": round(join_bytes / joins, 1) if joins else 0.0,
        "maintenance_bytes": maintenance,
        "maintenance_bytes_per_node_per_s": round(
            maintenance / (n * churn_duration), 6
        ),
        "faults_applied": dict(sorted(plan.injected.items())),
        "ledger_by_category": snapshot["by_category"],
    }


def run_scale_curves(
    sizes: Sequence[int] = DEFAULT_SIZES,
    seed: int = 0,
    lookups: int = 400,
    joins: int = 16,
    churn_duration: float = 60.0,
    crashes: int = 6,
    restarts: int = 3,
) -> dict:
    """Run the full sweep; returns the observatory-ready report dict.

    The report embeds ``metrics`` (the ``scaling.*`` curve gauges),
    ``params`` and a ``claims`` list, so ``python -m repro.obs.report
    --report scale-curves.json`` re-evaluates the asymptotic claims from
    the artifact alone -- same contract as the chaos report.
    """
    from repro.obs.claims import CURVE_CLAIMS
    from repro.pastry.network import PastryNetwork
    from repro.sim.rng import RngRegistry, stable_seed

    sizes = sorted(set(int(size) for size in sizes))
    if len(sizes) < 2:
        raise ValueError("need at least two sweep sizes to fit a curve")
    if sizes[0] < 64:
        raise ValueError("the smallest sweep size must be >= 64")
    if joins < 1 or lookups < 1:
        raise ValueError("joins and lookups must be positive")
    if churn_duration <= 0:
        raise ValueError("churn_duration must be positive")

    # Structure chain: grow one overlay through the ladder via the
    # incremental oracle, measuring read-only at each rung.
    obs = Observer()
    network = PastryNetwork(
        rngs=RngRegistry(stable_seed("scale-curves", seed)), observer=obs
    )
    network.build(sizes[0], method="oracle")
    network.attach_incremental_oracle()
    key_rng = network.rngs.stream("scale-lookup-keys")

    points: List[dict] = []
    for n in sizes:
        while network.live_count() < n:
            network.add_node()
        point = {"n": n}
        point.update(_measure_structure(network, obs, lookups, key_rng))
        point.update(
            _measure_costs(n, seed, joins, churn_duration, crashes, restarts)
        )
        points.append(point)

    curves = {
        "hops": _fit_both(sizes, [p["mean_hops"] for p in points]),
        "state_entries": _fit_both(
            sizes, [p["state_entries_mean"] for p in points]
        ),
        "join_messages": _fit_both(
            sizes, [p["join_messages_mean"] for p in points]
        ),
        "maintenance_rate": _fit_both(
            sizes, [p["maintenance_bytes_per_node_per_s"] for p in points]
        ),
    }

    # Curve gauges: what the asymptotic claim probes read.
    summary = MetricsRegistry()
    gauge = summary.gauge
    gauge("scaling.sweep_points").set(float(len(sizes)))
    gauge("scaling.max_size").set(float(sizes[-1]))
    for quantity, series in (
        ("hops", "hops"),
        ("state", "state_entries"),
        ("join", "join_messages"),
        ("maintenance", "maintenance_rate"),
    ):
        fits = curves[series]
        gauge(f"scaling.{quantity}.log_slope").set(fits["log"]["a"])
        gauge(f"scaling.{quantity}.log_rmse").set(fits["log"]["rmse"])
        if fits["power"] is not None:
            gauge(f"scaling.{quantity}.power_exponent").set(
                fits["power"]["exponent"]
            )
    gauge("scaling.maintenance.max_rate").set(
        points[-1]["maintenance_bytes_per_node_per_s"]
    )

    params = {
        "sizes": sizes,
        "max_size": sizes[-1],
        "seed": seed,
        "lookups": lookups,
        "joins": joins,
        "churn_duration": churn_duration,
        "crashes": crashes,
        "restarts": restarts,
        "bits_per_digit": network.space.b,
        "leaf_capacity": network.leaf_capacity,
        "neighborhood_capacity": network.neighborhood_capacity,
    }
    return {
        "seed": seed,
        "sizes": sizes,
        "params": params,
        "sweep": points,
        "curves": curves,
        "metrics": summary.snapshot(),
        "claims": list(CURVE_CLAIMS),
    }


# ---------------------------------------------------------------------- #
# rendering
# ---------------------------------------------------------------------- #

def render_scale_markdown(report: dict, verdicts=None) -> str:
    """Deterministic markdown curve report (the CI artifact)."""
    from repro.obs.claims import render_markdown

    lines = ["# Scale-curve report", ""]
    params = report["params"]
    lines.append(
        f"Sweep: N = {', '.join(str(n) for n in report['sizes'])} "
        f"(seed {params['seed']}, {params['lookups']} lookups, "
        f"{params['joins']} joins, {params['churn_duration']} sim-s churn per N)"
    )
    lines += [
        "",
        "| N | mean hops | state entries | state bytes/node | "
        "join msgs | maintenance B/node/s |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for point in report["sweep"]:
        lines.append(
            f"| {point['n']} | {point['mean_hops']:.2f} "
            f"| {point['state_entries_mean']:.1f} "
            f"| {point['state_bytes_per_node']:.0f} "
            f"| {point['join_messages_mean']:.1f} "
            f"| {point['maintenance_bytes_per_node_per_s']:.1f} |"
        )
    lines += [
        "",
        "## Fitted curves",
        "",
        "| quantity | a.log2(N)+b | log rmse | log R^2 | N^p exponent |",
        "| --- | --- | --- | --- | --- |",
    ]
    for name in ("hops", "state_entries", "join_messages", "maintenance_rate"):
        fits = report["curves"][name]
        log_fit = fits["log"]
        power = fits["power"]
        exponent = f"{power['exponent']:.3f}" if power is not None else "n/a"
        lines.append(
            f"| {name} | {log_fit['a']:.3f}.log2(N) + {log_fit['b']:.3f} "
            f"| {log_fit['rmse']:.4f} | {log_fit['r2']:.4f} | {exponent} |"
        )
    rendered = "\n".join(lines) + "\n"
    if verdicts is not None:
        rendered += "\n" + render_markdown(verdicts, None)
    return rendered
