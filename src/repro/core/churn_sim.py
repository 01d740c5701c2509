"""Event-driven churn scenarios.

"Nodes ... may join the system at any time and may silently leave the
system without warning" (abstract), and "the choice of a replication
factor k must take into account the expected rate of transient storage
node failures to ensure sufficient availability" (section 2.1).

:class:`ChurnSimulation` drives a live PAST network on the discrete-event
engine: Poisson node arrivals and silent departures, periodic
failure-recovery (replica restoration) passes, and an ongoing lookup
workload.  Benchmark E15 uses it to regenerate the availability-vs-k
trade-off the paper's replication-factor guidance describes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.core.client import FileHandle
from repro.core.errors import LookupFailedError
from repro.core.maintenance import replication_census, restore_replication
from repro.core.network import PastNetwork
from repro.faults.plan import ADJACENT_FAILURE, CRASH, RESTART, FaultEvent
from repro.obs.events import FaultInjected
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace_context import TraceContext
from repro.pastry.failure import (
    notify_leafset_of_failure,
    purge_failed,
    recover_node,
    stabilize_leaf_sets,
)
from repro.sim.engine import SimulationEngine
from repro.workloads.churn import ARRIVAL, poisson_churn_schedule


@dataclass
class ChurnReport:
    """What happened over one simulated run."""

    arrivals: int = 0
    departures: int = 0
    maintenance_passes: int = 0
    replicas_restored: int = 0
    lookups_attempted: int = 0
    lookups_succeeded: int = 0
    files_lost: int = 0
    final_node_count: int = 0

    @property
    def availability(self) -> float:
        if self.lookups_attempted == 0:
            return 1.0
        return self.lookups_succeeded / self.lookups_attempted


class ChurnSimulation:
    """One churned run over an existing network and file population."""

    def __init__(
        self,
        network: PastNetwork,
        handles: List[FileHandle],
        rng: Optional[random.Random] = None,
        arrival_rate: float = 0.02,
        departure_rate: float = 0.02,
        maintenance_interval: Optional[float] = 50.0,
        lookup_interval: float = 1.0,
        node_capacity: int = 1 << 22,
        min_live_nodes: int = 8,
        fault_plan=None,
        checker=None,
        sampler=None,
        sample_interval: float = 20.0,
    ) -> None:
        """Rates are events per simulated time unit.  Setting
        ``maintenance_interval`` to None disables failure recovery -- the
        ablation that shows why the recovery procedure matters.

        *fault_plan* is an optional :class:`repro.faults.plan.FaultPlan`
        whose scheduled events (crashes, restarts, coordinated adjacent
        failures) are applied on the engine alongside the Poisson churn;
        *checker* is an optional
        :class:`repro.faults.invariants.InvariantChecker` run after every
        injected event.

        *sampler* is an optional callable invoked with the engine's
        current sim time every *sample_interval* units -- the hook the
        telemetry layer uses to sample metrics into windowed series
        under the injected clock (so two same-seed runs sample at
        byte-identical instants).
        """
        self.network = network
        self.handles = handles
        self._rng = rng if rng is not None else network.rngs.stream("churn-sim")
        self.arrival_rate = arrival_rate
        self.departure_rate = departure_rate
        self.maintenance_interval = maintenance_interval
        self.lookup_interval = lookup_interval
        self.node_capacity = node_capacity
        self.min_live_nodes = min_live_nodes
        self.fault_plan = fault_plan
        self.checker = checker
        self.sampler = sampler
        self.sample_interval = sample_interval
        self.report = ChurnReport()
        # Tallying goes through the metrics registry (the network
        # observer's when one is installed, so churn counters appear in
        # its snapshot; a private one otherwise).  The report dataclass
        # is assembled from these counters at the end of the run.
        self._metrics: MetricsRegistry = (
            network.obs.metrics if network.obs.enabled else MetricsRegistry()
        )
        # Workload lookups are traced with *sim-time* stamps: trace ids
        # come from their own stream (drawing them from the workload rng
        # would perturb victim/file choices), and the engine reference is
        # installed by run() so spans read ``engine.now``.
        self._trace_rng = network.rngs.stream("churn-trace-ids")
        self._engine = None

    # ------------------------------------------------------------------ #
    # event actions
    # ------------------------------------------------------------------ #

    def _arrive(self) -> None:
        self.network.add_storage_node(self.node_capacity, join=True)
        self._metrics.counter("churn.arrivals").increment()

    def _depart(self) -> None:
        live = self.network.pastry.live_ids()
        if len(live) <= self.min_live_nodes:
            return  # refuse to churn the network out of existence
        victim = self._rng.choice(live)
        self.network.pastry.mark_failed(victim)
        # Silent departure: neighbours detect it via their keep-alive
        # machinery; we apply the detection outcome directly.
        notify_leafset_of_failure(self.network.pastry, victim)
        self._metrics.counter("churn.departures").increment()

    def _maintain(self) -> None:
        maintenance = restore_replication(self.network)
        self._metrics.counter("churn.maintenance_passes").increment()
        self._metrics.counter("churn.replicas_restored").increment(
            maintenance.replicas_restored
        )

    def _lookup(self) -> None:
        if not self.handles:
            return
        handle = self._rng.choice(self.handles)
        origin = self._rng.choice(self.network.pastry.live_ids())
        reader = self.network.create_client(usage_quota=0, access_node=origin)
        obs = self.network.obs
        ctx = None
        start = 0.0
        if obs.enabled and self._engine is not None:
            ctx = TraceContext.root(self._trace_rng)
            start = self._engine.now
        try:
            result = reader.lookup_verbose(
                handle.file_id,
                replica_hint=handle.certificate.replication_factor,
            )
            self._metrics.counter("churn.lookups", outcome="ok").increment()
            if ctx is not None:
                obs.traces.record(
                    ctx, "churn.lookup", start=start, end=self._engine.now,
                    file_id=f"{handle.file_id:x}", origin=f"{origin:x}",
                    outcome="ok", hops=result.hops,
                )
        except LookupFailedError:
            self._metrics.counter("churn.lookups", outcome="failed").increment()
            if ctx is not None:
                obs.traces.record(
                    ctx, "churn.lookup", start=start, end=self._engine.now,
                    file_id=f"{handle.file_id:x}", origin=f"{origin:x}",
                    outcome="failed",
                )

    # ------------------------------------------------------------------ #
    # injected faults
    # ------------------------------------------------------------------ #

    def _emit_fault(self, kind: str, target: Optional[int], detail: str) -> None:
        self._metrics.counter("faults.injected", kind=kind).increment()
        obs = self.network.obs
        if obs.enabled:
            obs.emit(FaultInjected(fault=kind, target=target, detail=detail))

    def _crash_one(self, victim: int) -> None:
        """Kill *victim* and run the synchronous detection sweep, so the
        failure is *confirmed*: every survivor repairs, and the checker
        is entitled to demand no dangling references remain."""
        pastry = self.network.pastry
        pastry.mark_failed(victim)
        purge_failed(pastry, victim)
        if self.checker is not None:
            self.checker.confirm_dead(victim)

    def _apply_fault(self, event: FaultEvent) -> None:
        plan = self.fault_plan
        pastry = self.network.pastry
        live = pastry.live_ids()
        if event.kind == CRASH:
            if len(live) <= self.min_live_nodes:
                return
            victim = event.target if event.target is not None else plan.pick_target(live)
            if victim is None or not pastry.is_live(victim):
                return
            self._crash_one(victim)
            # One leaf-maintenance round: repair donors cannot advertise
            # nodes they do not know, so a survivor missing from every
            # donor's coverage must announce itself -- which is what the
            # protocol's periodic leaf-set exchange does.
            stabilize_leaf_sets(pastry)
            plan.count(CRASH)
            self._emit_fault(CRASH, victim, "injected crash")
        elif event.kind == RESTART:
            dead = sorted(
                nid for nid, node in pastry.nodes.items() if not node.alive
            )
            victim = event.target if event.target is not None else plan.pick_target(dead)
            if victim is None or pastry.is_live(victim):
                return
            recover_node(pastry, victim)
            if self.checker is not None:
                self.checker.confirm_alive(victim)
            plan.count(RESTART)
            self._emit_fault(RESTART, victim, "injected restart")
        elif event.kind == ADJACENT_FAILURE:
            if len(live) <= self.min_live_nodes + event.count:
                return
            # Fail *count* nodes with adjacent nodeIds around a seeded
            # anchor key -- simultaneously (all marked dead before any
            # repair runs), which is exactly the C6 precondition when
            # count >= floor(l/2).
            anchor = plan.pick_anchor(pastry.space.bits)
            start = pastry.space.closest(anchor, iter(live))
            index = live.index(start)
            victims = [live[(index + i) % len(live)] for i in range(event.count)]
            for victim in victims:
                pastry.mark_failed(victim)
            for victim in victims:
                purge_failed(pastry, victim)
                if self.checker is not None:
                    self.checker.confirm_dead(victim)
            # Per-victim repair ordering can leave one-directional leaf
            # references after a *coordinated* failure; one maintenance
            # round restores symmetry (see stabilize_leaf_sets).
            stabilize_leaf_sets(pastry)
            plan.count(ADJACENT_FAILURE)
            self._emit_fault(
                ADJACENT_FAILURE,
                None,
                f"{event.count} adjacent nodes around {anchor:x}",
            )
        if self.checker is not None:
            self.checker.check_all()

    def _sample(self) -> None:
        self.sampler(self._engine.now)

    # ------------------------------------------------------------------ #
    # driver
    # ------------------------------------------------------------------ #

    def run(self, duration: float) -> ChurnReport:
        """Run the scenario for *duration* simulated time units."""
        engine = SimulationEngine()
        self._engine = engine
        obs = self.network.obs
        if obs.enabled:
            # Events published during the run carry sim-time timestamps.
            obs.clock = lambda: engine.now
        # The churn and fault schedules are fully known up front, so they
        # bulk-load in one heapify pass each (schedule_many_at) instead
        # of one heap-push per event.
        engine.schedule_many_at(
            (
                (event.time, self._arrive if event.kind == ARRIVAL else self._depart)
                for event in poisson_churn_schedule(
                    self._rng, duration, self.arrival_rate, self.departure_rate
                )
            )
        )
        if self.fault_plan is not None:
            engine.schedule_many_at(
                (
                    (fault_event.time, lambda ev=fault_event: self._apply_fault(ev))
                    for fault_event in self.fault_plan.events
                )
            )
        if self.maintenance_interval is not None:
            engine.schedule_periodic(self.maintenance_interval, self._maintain)
        engine.schedule_periodic(self.lookup_interval, self._lookup)
        if self.sampler is not None:
            engine.schedule_periodic(self.sample_interval, self._sample)
        engine.run(until=duration)
        if obs.enabled:
            obs.clock = None

        census = replication_census(self.network)
        counter = self._metrics.counter
        ok = counter("churn.lookups", outcome="ok").value
        failed = counter("churn.lookups", outcome="failed").value
        self.report = ChurnReport(
            arrivals=counter("churn.arrivals").value,
            departures=counter("churn.departures").value,
            maintenance_passes=counter("churn.maintenance_passes").value,
            replicas_restored=counter("churn.replicas_restored").value,
            lookups_attempted=ok + failed,
            lookups_succeeded=ok,
            files_lost=census["lost"],
            final_node_count=self.network.pastry.live_count(),
        )
        return self.report
