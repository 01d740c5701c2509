"""Integration tests: overlay construction and end-to-end routing."""

import math

import pytest

from repro.obs.recorder import Observer
from repro.pastry.join import join_network
from repro.pastry.network import (
    TABLE_QUALITY_PERFECT,
    TABLE_QUALITY_RANDOM,
    PastryNetwork,
)
from repro.sim.rng import RngRegistry


def build(n, seed=1, method="join", **kwargs):
    network = PastryNetwork(rngs=RngRegistry(seed), **kwargs)
    network.build(n, method=method)
    return network


class TestConstruction:
    def test_node_ids_unique(self):
        net = build(50)
        assert len(set(net.nodes)) == 50

    def test_explicit_id(self):
        net = PastryNetwork(rngs=RngRegistry(2))
        node = net.add_node(12345)
        assert node.node_id == 12345
        with pytest.raises(ValueError):
            net.add_node(12345)

    def test_build_requires_positive_n(self):
        net = PastryNetwork(rngs=RngRegistry(2))
        with pytest.raises(ValueError):
            net.build(0)

    def test_unknown_method_rejected(self):
        net = PastryNetwork(rngs=RngRegistry(2))
        with pytest.raises(ValueError):
            net.build(5, method="magic")

    def test_single_node_network(self):
        net = build(1)
        node_id = net.live_ids()[0]
        result = net.route(net.space.random_id(net.rngs.stream("k")), node_id)
        assert result.delivered
        assert result.destination == node_id

    @pytest.mark.parametrize("method", ["join", "oracle"])
    def test_invariants_hold(self, method):
        net = build(120, method=method)
        net.check_all_invariants()


class TestGroundTruth:
    def test_global_root_is_closest(self):
        net = build(80)
        rng = net.rngs.stream("gt")
        ids = net.live_ids()
        for _ in range(50):
            key = net.space.random_id(rng)
            root = net.global_root(key)
            best = min(ids, key=lambda n: (net.space.distance(n, key), -n))
            assert root == best

    def test_replica_root_set_sorted_by_distance(self):
        net = build(80)
        rng = net.rngs.stream("gt2")
        key = net.space.random_id(rng)
        roots = net.replica_root_set(key, 5)
        distances = [net.space.distance(n, key) for n in roots]
        assert distances == sorted(distances)
        assert roots[0] == net.global_root(key)

    def test_replica_root_set_k_bound(self):
        net = build(5)
        with pytest.raises(ValueError):
            net.replica_root_set(0, 6)


@pytest.mark.parametrize("method", ["join", "oracle"])
class TestRoutingCorrectness:
    def test_all_lookups_reach_numerically_closest(self, method):
        net = build(150, method=method)
        rng = net.rngs.stream("lookups")
        for _ in range(300):
            key = net.space.random_id(rng)
            origin = rng.choice(net.live_ids())
            result = net.route(key, origin)
            assert result.delivered, result.reason
            assert result.destination == net.global_root(key)

    def test_hop_bound(self, method):
        """Average hops < ceil(log_2^b N) (claim C1)."""
        net = build(150, method=method)
        rng = net.rngs.stream("hops")
        hops = []
        for _ in range(300):
            key = net.space.random_id(rng)
            origin = rng.choice(net.live_ids())
            hops.append(net.route(key, origin).hops)
        bound = math.ceil(math.log(150, net.space.base))
        assert sum(hops) / len(hops) < bound

    def test_route_to_exact_node_id(self, method):
        net = build(60, method=method)
        rng = net.rngs.stream("exact")
        for target in rng.sample(net.live_ids(), 10):
            origin = rng.choice(net.live_ids())
            result = net.route(target, origin)
            assert result.delivered
            assert result.destination == target


class TestRouteMechanics:
    def test_route_from_dead_origin_rejected(self):
        net = build(30)
        victim = net.live_ids()[0]
        net.mark_failed(victim)
        with pytest.raises(ValueError):
            net.route(12345, victim)

    def test_malicious_intermediate_drops(self):
        net = build(100)
        rng = net.rngs.stream("mal")
        # Find a route with an intermediate node; mark it malicious.
        for _ in range(200):
            key = net.space.random_id(rng)
            origin = rng.choice(net.live_ids())
            result = net.route(key, origin)
            if result.hops >= 2:
                bad = result.path[1]
                net.nodes[bad].malicious = True
                retry = net.route(key, origin)
                assert not retry.delivered
                assert retry.reason == "dropped"
                net.nodes[bad].malicious = False
                return
        pytest.fail("no multi-hop route found")

    def test_malicious_origin_can_still_send(self):
        """A malicious node's own requests route normally (it is the
        client's access point)."""
        net = build(60)
        rng = net.rngs.stream("mal2")
        origin = rng.choice(net.live_ids())
        net.nodes[origin].malicious = True
        key = net.space.random_id(rng)
        result = net.route(key, origin)
        # Either delivered (honest remainder) or dropped downstream; with
        # no other malicious nodes it must deliver.
        assert result.delivered
        net.nodes[origin].malicious = False

    def test_message_counting(self):
        net = build(30)
        before = net.stats.counter("messages.route").value
        rng = net.rngs.stream("count")
        result = net.route(net.space.random_id(rng), rng.choice(net.live_ids()))
        after = net.stats.counter("messages.route").value
        assert after - before == result.hops


class TestStateSize:
    def test_state_bounded_by_formula(self):
        """Claim C2: entries <= (2^b - 1) * ceil(log_2^b N) + 2l, with a
        small allowance for rows populated beyond the log bound."""
        n = 200
        net = build(n)
        bound = (net.space.base - 1) * (math.ceil(math.log(n, net.space.base)) + 1) \
            + net.leaf_capacity
        for node_id in net.live_ids():
            assert net.nodes[node_id].state.total_entries() <= bound

    def test_populated_rows_logarithmic(self):
        n = 200
        net = build(n)
        expected = math.ceil(math.log(n, net.space.base))
        rows = [net.nodes[i].state.routing_table.populated_rows() for i in net.live_ids()]
        assert sum(rows) / len(rows) <= expected + 1


class TestTableQualityModes:
    def test_perfect_and_random_both_route(self):
        for quality in (TABLE_QUALITY_PERFECT, TABLE_QUALITY_RANDOM):
            net = build(60, method="oracle", table_quality=quality)
            rng = net.rngs.stream("q")
            for _ in range(50):
                key = net.space.random_id(rng)
                result = net.route(key, rng.choice(net.live_ids()))
                assert result.delivered
                assert result.destination == net.global_root(key)

    def test_perfect_tables_proximally_optimal(self):
        """With perfect quality, each entry is the proximally nearest
        among all candidates for its slot."""
        net = build(40, method="oracle", table_quality=TABLE_QUALITY_PERFECT)
        ids = net.live_ids()
        space = net.space
        for node_id in ids[:10]:
            node = net.nodes[node_id]
            table = node.state.routing_table
            for entry in list(table.entries()):
                row, col = table.slot_for(entry)
                candidates = [
                    other
                    for other in ids
                    if other != node_id and table.slot_for(other) == (row, col)
                ]
                best = min(candidates, key=lambda c: (node.proximity(c), c))
                assert entry == best


def _state(net):
    """Leaf sides, table rows and neighborhood order of every live node."""
    out = {}
    for node_id in net.live_ids():
        state = net.nodes[node_id].state
        table = state.routing_table
        out[node_id] = (
            tuple(state.leaf_set.larger_side()),
            tuple(state.leaf_set.smaller_side()),
            tuple(tuple(table.row(row)) for row in range(net.space.digits)),
            tuple(state.neighborhood.ordered_members()),
        )
    return out


class TestAttachColdStart:
    """``attach_incremental_oracle`` rebuilds only when node state is not
    already what a rebuild would produce.  That holds at perfect quality
    only: a sampled-quality rebuild re-draws its table picks, which
    ``TestMaintainerDecisionsPinned`` (test_oracle_incremental.py) pins."""

    def _built(self):
        obs = Observer()
        net = PastryNetwork(rngs=RngRegistry(5),
                            table_quality=TABLE_QUALITY_PERFECT, observer=obs)
        net.build(200, method="oracle")
        return net, obs.metrics.counter("oracle.rebuilds")

    def test_attach_after_oracle_build_reuses_the_build(self):
        net, rebuilds = self._built()
        net.attach_incremental_oracle()
        assert rebuilds.value == 1
        attached = _state(net)
        net.detach_incremental_oracle()
        net.rebuild_state_oracle()
        assert attached == _state(net)

    def test_protocol_join_in_between_forces_the_rebuild(self):
        net, rebuilds = self._built()
        node = net.add_node()
        join_network(net, node, net._nearest_live_contact(node))
        net.attach_incremental_oracle()
        assert rebuilds.value == 2

    def test_failure_in_between_forces_the_rebuild(self):
        net, rebuilds = self._built()
        net.mark_failed(net.live_ids()[3])
        net.attach_incremental_oracle()
        assert rebuilds.value == 2
