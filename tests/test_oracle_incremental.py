"""The incremental oracle's equivalence contract.

``IncrementalOracle`` promises that with ``table_quality="perfect"`` the
in-place maintenance of joins, silent failures and revivals leaves every
node's state **byte-identical** to a fresh ``rebuild_state_oracle`` of
the same membership; with sampled qualities it promises structural
validity plus byte-identical leaf sets.  These tests drive randomized
interleavings (crossing ``oracle_rows`` thresholds in both directions)
across many seeds and compare against the rebuild at checkpoints.
"""

import hashlib
import random

import pytest

from repro.netsim.topology import RandomGraphTopology
from repro.pastry.network import (
    TABLE_QUALITY_GOOD,
    TABLE_QUALITY_PERFECT,
    TABLE_QUALITY_RANDOM,
    PastryNetwork,
    oracle_rows,
)
from repro.pastry.nodeid import IdSpace
from repro.sim.rng import RngRegistry


def _state_fingerprint(net):
    """Every observable byte of every live node's state: both leaf-set
    sides in offset order, every populated table row cell by cell, and
    the neighborhood set in proximity order."""
    out = {}
    for node_id in net.live_ids():
        state = net.nodes[node_id].state
        table = state.routing_table
        rows = tuple(
            (row, tuple(table.row(row)))
            for row in range(net.space.digits)
            if table.row_entries(row)
        )
        out[node_id] = (
            tuple(state.leaf_set.larger_side()),
            tuple(state.leaf_set.smaller_side()),
            rows,
            tuple(state.neighborhood.ordered_members()),
        )
    return out


def _leaf_fingerprint(net):
    return {
        node_id: (
            tuple(net.nodes[node_id].state.leaf_set.larger_side()),
            tuple(net.nodes[node_id].state.leaf_set.smaller_side()),
        )
        for node_id in net.live_ids()
    }


def _churn_step(net, rng, dead):
    """One random membership event; keeps the network non-degenerate."""
    live_count = net.live_count()
    roll = rng.random()
    if roll < 0.4 or (live_count < 6 and not dead):
        net.add_node()
    elif roll < 0.7 and live_count > 4:
        victim = rng.choice(net.live_ids())
        net.mark_failed(victim)
        dead.append(victim)
    elif dead:
        net.mark_recovered(dead.pop(rng.randrange(len(dead))))
    else:
        net.add_node()


def _make(seed, bits, b, quality, n, neighborhood_capacity=8):
    net = PastryNetwork(
        space=IdSpace(bits=bits, b=b),
        rngs=RngRegistry(seed),
        table_quality=quality,
        leaf_capacity=8,
        neighborhood_capacity=neighborhood_capacity,
    )
    net.build(n, method="oracle")
    return net


class TestPerfectQualityEquivalence:
    """Incremental == rebuild, byte for byte, at perfect quality."""

    # 13 small-space cases here + 7 wide-space cases below = 20 seeds.
    # The b=2 cases start just below the 16->17 node boundary where
    # ``oracle_rows`` grows, so the random walk crosses it early.
    @pytest.mark.parametrize(
        "seed,bits,b,n_start,ops",
        [(s, 32, 4, 24, 40) for s in range(5)]
        + [(s, 16, 2, 15, 60) for s in range(5, 13)],
    )
    def test_interleaved_churn_matches_rebuild(self, seed, bits, b, n_start, ops):
        net = _make(seed, bits, b, TABLE_QUALITY_PERFECT, n_start)
        net.attach_incremental_oracle()
        rng = random.Random(seed * 7 + 1)
        dead = []
        row_counts = {oracle_rows(net.space, net.live_count())}

        def checkpoint():
            incremental = _state_fingerprint(net)
            net.detach_incremental_oracle()
            net.rebuild_state_oracle()
            assert incremental == _state_fingerprint(net), (
                f"incremental state diverged from rebuild (seed={seed})"
            )
            net.attach_incremental_oracle()

        for op in range(ops):
            _churn_step(net, rng, dead)
            row_counts.add(oracle_rows(net.space, net.live_count()))
            if op % 5 == 4:
                checkpoint()
        if b == 2:
            # Drain back below the boundary so the run exercises the
            # row-count *shrink* path as well as the grow path.
            while net.live_count() > 13:
                net.mark_failed(net.live_ids()[rng.randrange(net.live_count())])
            row_counts.add(oracle_rows(net.space, net.live_count()))
            checkpoint()
            assert len(row_counts) > 1

    @pytest.mark.parametrize("seed", range(13, 20))
    def test_default_128bit_space(self, seed):
        net = _make(seed, 128, 4, TABLE_QUALITY_PERFECT, 24)
        net.attach_incremental_oracle()
        rng = random.Random(seed)
        dead = []
        for _ in range(20):
            _churn_step(net, rng, dead)
        incremental = _state_fingerprint(net)
        net.detach_incremental_oracle()
        net.rebuild_state_oracle()
        assert incremental == _state_fingerprint(net)


class TestSampledQualityValidity:
    """Sampled qualities cannot be byte-compared (different RNG streams)
    but must stay structurally valid, with leaf sets byte-identical."""

    def test_good_quality_structure_and_leaves(self):
        net = _make(3, 32, 4, TABLE_QUALITY_GOOD, 32)
        net.attach_incremental_oracle()
        rng = random.Random(9)
        dead = []
        for _ in range(50):
            _churn_step(net, rng, dead)
        # Leaf sets never consult the RNG: still byte-identical.
        incremental_leaves = _leaf_fingerprint(net)
        incremental_tables = {
            node_id: net.nodes[node_id].state.routing_table
            for node_id in net.live_ids()
        }
        live = set(net.live_ids())
        oracle = net._oracle
        for node_id in sorted(live):
            table = incremental_tables[node_id]
            table.check_invariants()  # every entry in its correct slot
            for entry in table.entries():
                assert entry in live, "table references a dead node"
            # A cell is vacant only when its candidate group is empty.
            for row in range(oracle_rows(net.space, len(live))):
                prefix = net.space.prefix(node_id, row)
                own = net.space.digit(node_id, row)
                for col in range(net.space.base):
                    if col == own:
                        continue
                    lo, hi = oracle._group_slice(row, prefix, col)
                    if table.lookup(row, col) is None:
                        assert lo >= hi, (
                            f"cell ({row},{col}) of {node_id:x} vacant "
                            f"despite a non-empty candidate group"
                        )
        net.detach_incremental_oracle()
        net.rebuild_state_oracle()
        assert incremental_leaves == _leaf_fingerprint(net)


def _neighborhood(state):
    neighborhood = state.neighborhood
    return neighborhood.ordered_members(), list(neighborhood._distances)


def _check_m_through_churn(net, rng, floor):
    """Churn *net* for 30 events, then fail nodes down to *floor*
    live; after every single event each live node's M must be exactly
    what ``reseed_neighborhood`` builds from its current leaf set and
    table, members and distances.  Returns the row counts seen and the
    number of nodes checked."""
    net.attach_incremental_oracle()
    batch_distance = net.topology.batch_distance
    dead = []
    row_counts = {oracle_rows(net.space, net.live_count())}
    checks = 0

    def check():
        nonlocal checks
        for node_id in net.live_ids():
            state = net.nodes[node_id].state
            maintained = state.neighborhood
            actual = _neighborhood(state)
            state.reseed_neighborhood(batch_distance(node_id))
            assert actual == _neighborhood(state), (
                f"M of {node_id:x} is not the reseed of its leaf set and table"
            )
            state.neighborhood = maintained
            checks += 1

    for _ in range(30):
        _churn_step(net, rng, dead)
        row_counts.add(oracle_rows(net.space, net.live_count()))
        check()
    while net.live_count() > floor:
        net.mark_failed(net.live_ids()[rng.randrange(net.live_count())])
        row_counts.add(oracle_rows(net.space, net.live_count()))
        check()
    return row_counts, checks


class TestNeighborhoodFollowsLeafAndTable:
    """The maintainer moves M by each event's pool change instead of
    re-ranking it; M must stay a pure function of leaf set and table
    at every quality, across ``oracle_rows`` thresholds both ways,
    through revivals, and with M both smaller (8) and larger (32) than
    the pool."""

    @pytest.mark.parametrize("capacity", [8, 32])
    @pytest.mark.parametrize("b,n_start", [(2, 15), (4, 14)])
    @pytest.mark.parametrize(
        "quality", [TABLE_QUALITY_GOOD, TABLE_QUALITY_RANDOM, TABLE_QUALITY_PERFECT]
    )
    def test_m_is_reseed_of_leaf_and_table_after_every_event(
        self, quality, b, n_start, capacity
    ):
        net = _make(5, 32, b, quality, n_start, neighborhood_capacity=capacity)
        rng = random.Random(b * 100 + capacity)
        row_counts, checks = _check_m_through_churn(net, rng, n_start - 2)
        assert len(row_counts) > 1
        assert checks > 500

    @pytest.mark.parametrize(
        "quality", [TABLE_QUALITY_GOOD, TABLE_QUALITY_RANDOM, TABLE_QUALITY_PERFECT]
    )
    def test_distance_ties_rank_by_id(self, quality):
        """Hop-count distances over eight routers tie all the time, so
        every entrant's place among equals comes down to its id."""
        rngs = RngRegistry(8)
        net = PastryNetwork(
            space=IdSpace(bits=32, b=4),
            topology=RandomGraphTopology(rngs.stream("topology"), routers=8),
            rngs=rngs,
            table_quality=quality,
            leaf_capacity=8,
            neighborhood_capacity=8,
        )
        net.build(24, method="oracle")
        _, checks = _check_m_through_churn(net, random.Random(8), 20)
        assert checks > 500
        if quality == TABLE_QUALITY_PERFECT:
            # Table cells break the same ties the same way as the rebuild.
            incremental = _state_fingerprint(net)
            net.detach_incremental_oracle()
            net.rebuild_state_oracle()
            assert incremental == _state_fingerprint(net)


def _state_digest(net):
    """SHA-256 over every live node's leaf sides, table rows and M
    (members and the exact bits of their distances)."""
    digest = hashlib.sha256()
    for node_id in net.live_ids():
        state = net.nodes[node_id].state
        table = state.routing_table
        rows = [
            (row, table.row(row))
            for row in range(net.space.digits)
            if table.row_entries(row)
        ]
        members, distances = _neighborhood(state)
        digest.update(repr((
            node_id,
            state.leaf_set.larger_side(),
            state.leaf_set.smaller_side(),
            rows,
            members,
            [distance.hex() for distance in distances],
        )).encode())
    return digest.hexdigest()


class TestMaintainerDecisionsPinned:
    def test_good_quality_churn_state_digest(self):
        """1024 nodes at good quality (the default space, leaf set and
        M), 50 add/fail pairs at a fixed seed.  The digest was recorded
        when every touched M was still re-ranked from scratch: keeping
        M by its pool delta must change no structure's contents."""
        net = PastryNetwork(rngs=RngRegistry(46), table_quality=TABLE_QUALITY_GOOD)
        net.build(1024, method="oracle")
        net.attach_incremental_oracle()
        rng = random.Random(46)
        for _ in range(50):
            net.add_node()
            live = net.live_ids()
            net.mark_failed(live[rng.randrange(len(live))])
        assert _state_digest(net) == (
            "847e6cf8dc2d9e213bd843b065a4969beb97147a8919b76d1ea0ba3b09c9b265"
        )


class TestReviveDiscardsStaleState:
    def test_revived_node_state_is_rebuilt_fresh(self):
        net = _make(1, 32, 4, TABLE_QUALITY_PERFECT, 24)
        net.attach_incremental_oracle()
        victim = net.live_ids()[7]
        net.mark_failed(victim)
        # Churn while the victim is down so its retained state goes
        # stale: kill one of its former leaf neighbors and add joiners.
        stale_members = set(net.nodes[victim].state.leaf_set.members())
        dead_neighbor = sorted(stale_members)[0]
        net.mark_failed(dead_neighbor)
        for _ in range(6):
            net.add_node()
        net.mark_recovered(victim)
        fresh_members = set(net.nodes[victim].state.leaf_set.members())
        incremental = _state_fingerprint(net)
        net.detach_incremental_oracle()
        net.rebuild_state_oracle()
        assert incremental == _state_fingerprint(net)
        # The revival did not resurrect the pre-failure snapshot: the
        # stale leaf set names a node that is now dead.
        assert dead_neighbor in stale_members
        assert dead_neighbor not in fresh_members


class TestAttachDetach:
    def test_attach_runs_cold_start_rebuild(self):
        net = PastryNetwork(
            space=IdSpace(bits=32, b=4),
            rngs=RngRegistry(11),
            table_quality=TABLE_QUALITY_PERFECT,
            leaf_capacity=8,
            neighborhood_capacity=8,
        )
        for _ in range(16):
            net.add_node()  # no oracle attached: state stays empty
        net.attach_incremental_oracle()
        reference = _make(11, 32, 4, TABLE_QUALITY_PERFECT, 16)
        assert _state_fingerprint(net) == _state_fingerprint(reference)

    def test_detach_stops_maintenance(self):
        net = _make(2, 32, 4, TABLE_QUALITY_PERFECT, 16)
        net.attach_incremental_oracle()
        net.detach_incremental_oracle()
        before = _state_fingerprint(net)
        net.add_node()
        after = {k: v for k, v in _state_fingerprint(net).items() if k in before}
        assert before == after  # nobody learned about the new node
