"""The invariant checker: every invariant passes on a healthy
deployment and trips on a deliberately broken one.

Each test breaks exactly one thing by hand -- a leaf-set entry deleted
behind the protocol's back, a confirmed corpse left unpurged, a replica
deleted from a store, a tampered quota ledger -- and asserts the checker
attributes the damage to the right invariant and nothing else.  A final
test closes the loop: running the real repair machinery
(:func:`purge_failed` / :func:`restore_replication`) restores a clean
sweep.  ``TestEveryFaultKindActs`` runs each scheduled fault kind alone
through the churn simulation and asserts its effect.
"""

import pytest

from repro.core.churn_sim import ChurnSimulation
from repro.core.files import SyntheticData
from repro.core.maintenance import restore_replication
from repro.core.network import PastNetwork
from repro.faults.invariants import InvariantChecker, Violation
from repro.faults.plan import (
    ADJACENT_FAILURE,
    CRASH,
    EVENT_KINDS,
    RESTART,
    FaultEvent,
    FaultPlan,
)
from repro.obs.events import InvariantViolated
from repro.obs.recorder import Observer
from repro.pastry.failure import purge_failed
from repro.sim.rng import RngRegistry

LEAF_CAPACITY = 8


def build_deployment(seed=0, nodes=24, files=6, k=3):
    observer = Observer()
    network = PastNetwork(
        rngs=RngRegistry(seed), observer=observer, leaf_capacity=LEAF_CAPACITY
    )
    network.build(nodes, method="join", capacity_fn=lambda r: 1 << 22)
    client = network.create_client(usage_quota=1 << 40)
    handles = [
        client.insert(f"inv-{i}", SyntheticData(i, 1500), replication_factor=k)
        for i in range(files)
    ]
    checker = InvariantChecker(network, clients=[client], observer=observer)
    return network, client, handles, checker, observer


def invariants_of(violations):
    return {violation.invariant for violation in violations}


class TestHealthyDeployment:
    def test_clean_sweep_on_fresh_network(self):
        network, _, _, checker, _ = build_deployment()
        assert checker.check_all() == []
        assert checker.checks_run == 1
        assert checker.violations == []

    def test_silent_failure_is_tolerated(self):
        """Undetected deaths are not violations: Pastry repairs on
        *detection*, so references to a silently dead node are legal
        until the checker is told the failure was confirmed."""
        network, _, _, checker, _ = build_deployment(seed=1)
        victim = network.pastry.live_ids()[3]
        network.pastry.mark_failed(victim)  # no purge, no confirm_dead
        assert invariants_of(checker.check_all()) <= {"replication"}


class TestEachInvariantTrips:
    def test_leaf_symmetry(self):
        network, _, _, checker, _ = build_deployment(seed=2)
        # Delete B from A's leaf set behind the protocol's back: B still
        # holds A (and A is admittable to B's leaf by construction), but
        # the reverse reference is gone.
        live = network.pastry.live_ids()
        node = network.pastry.nodes[live[0]]
        member = sorted(node.state.leaf_set.members())[0]
        peer = network.pastry.nodes[member]
        assert peer.state.leaf_set.remove(live[0])
        found = checker.check_all()
        assert "leaf-symmetry" in invariants_of(found)

    def test_leaf_liveness(self):
        network, _, _, checker, _ = build_deployment(seed=3)
        # Confirm a death but run none of the repairs: every survivor
        # still referencing the corpse is now in violation.
        live = network.pastry.live_ids()
        victim = live[len(live) // 2]
        network.pastry.mark_failed(victim)
        checker.confirm_dead(victim)
        found = checker.check_all()
        assert "leaf-liveness" in invariants_of(found)

    def test_routing_liveness(self):
        network, _, _, checker, _ = build_deployment(seed=4)
        live = network.pastry.live_ids()
        victim = live[len(live) // 2]
        network.pastry.mark_failed(victim)
        checker.confirm_dead(victim)
        found = checker.check_all()
        assert "routing-liveness" in invariants_of(found)

    def test_replication(self):
        network, _, handles, checker, _ = build_deployment(seed=5)
        # Delete one file's replicas from every live holder: no death
        # was confirmed, so nothing excuses the missing copies.
        record = network.files[handles[0].file_id]
        for holder_id in list(record.holders):
            holder = network.past_node(holder_id)
            holder.store.remove(handles[0].file_id)
        found = checker.check_all()
        assert "replication" in invariants_of(found)
        [violation] = [v for v in found if v.invariant == "replication"]
        assert "confirmed holder deaths=0" in violation.detail

    def test_quota_conservation(self):
        network, client, _, checker, _ = build_deployment(seed=6)
        client.card.quota_used += 999  # a charge no insert accounts for
        found = checker.check_all()
        assert "quota-conservation" in invariants_of(found)


class TestDetectionBookkeeping:
    def test_confirmed_death_excuses_missing_replicas(self):
        """k - confirmed_dead_holders is the allowance: detected deaths
        may cost replicas without tripping the invariant, silent deletion
        may not."""
        network, _, handles, checker, _ = build_deployment(seed=7)
        record = network.files[handles[0].file_id]
        victim = sorted(record.holders)[0]
        network.pastry.mark_failed(victim)
        purge_failed(network.pastry, victim)
        checker.confirm_dead(victim)
        assert "replication" not in invariants_of(checker.check_all())

    def test_repair_restores_a_clean_sweep(self):
        """The real machinery closes the loop: purge + maintenance bring
        a damaged deployment back to zero violations."""
        network, _, _, checker, _ = build_deployment(seed=8)
        live = network.pastry.live_ids()
        victim = live[len(live) // 3]
        network.pastry.mark_failed(victim)
        checker.confirm_dead(victim)
        assert checker.check_all() != []  # broken while unrepaired
        purge_failed(network.pastry, victim)
        restore_replication(network)
        assert checker.check_all() == []

    def test_revival_repays_debt_only_while_registry_remembers(self):
        network, _, handles, checker, _ = build_deployment(seed=9)
        record = network.files[handles[0].file_id]
        victim = sorted(record.holders)[0]
        network.pastry.mark_failed(victim)
        purge_failed(network.pastry, victim)
        checker.confirm_dead(victim)
        assert checker._dead_holder_debt[handles[0].file_id] == 1
        # The node comes back still holding its replica and still listed
        # in the registry: the debt is repaid.
        network.pastry.mark_recovered(victim)
        checker.confirm_alive(victim)
        assert checker._dead_holder_debt[handles[0].file_id] == 0
        assert "replication" not in invariants_of(checker.check_all())


class TestViolationReporting:
    def test_violations_reach_the_event_bus(self):
        network, client, _, checker, observer = build_deployment(seed=10)
        client.card.quota_used += 1
        checker.check_all()
        emitted = [
            event for event in observer.bus.events()
            if isinstance(event, InvariantViolated)
        ]
        assert emitted and emitted[0].invariant == "quota-conservation"
        assert observer.metrics.counter(
            "invariants.violations", invariant="quota-conservation"
        ).value >= 1

    def test_violation_records_are_frozen_and_attributable(self):
        violation = Violation(invariant="leaf-symmetry", node_id=7, detail="x")
        with pytest.raises(Exception):
            violation.detail = "rewritten"
        assert violation.node_id == 7


# The change each scheduled fault kind makes to the live node count.
ADJACENT_COUNT = LEAF_CAPACITY // 2 - 1
LIVE_DELTA = {CRASH: -1, RESTART: +1, ADJACENT_FAILURE: -ADJACENT_COUNT}


class TestEveryFaultKindActs:
    """A kind in the fault schedule must do something the simulator can
    see; a kind with no named effect here fails its case."""

    @pytest.mark.parametrize("kind", EVENT_KINDS)
    def test_kind_alone_moves_the_live_count(self, kind):
        assert kind in LIVE_DELTA, f"fault kind {kind!r} has no named effect"
        network, _, handles, checker, _ = build_deployment(seed=11)
        pastry = network.pastry
        if kind == RESTART:
            # A restart needs a confirmed-dead node to bring back.
            victim = pastry.live_ids()[5]
            pastry.mark_failed(victim)
            purge_failed(pastry, victim)
            checker.confirm_dead(victim)
        count = ADJACENT_COUNT if kind == ADJACENT_FAILURE else 1
        plan = FaultPlan(seed=11, events=[FaultEvent(5.0, kind, count=count)])
        before = pastry.live_count()
        ChurnSimulation(
            network, handles, arrival_rate=0.0, departure_rate=0.0,
            maintenance_interval=None, lookup_interval=1.0,
            fault_plan=plan, checker=checker,
        ).run(10.0)
        assert pastry.live_count() - before == LIVE_DELTA[kind]
        assert plan.injected == {kind: 1}
        assert checker.checks_run >= 1
        assert checker.violations == []
