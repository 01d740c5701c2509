"""Decision-time route tracing, the progress invariant, and one hop schema.

A traced route records a ``route`` span in ``obs.traces`` with one
``hop`` child per decision, each carrying the routing rule that fired
when the hop was chosen.  These tests read those spans back through
``TraceCollector.assemble`` -- the same view ``repro route --json`` and
``repro trace`` print -- and check what the paper's routing promises:
prefix growth, the progress invariant, the rare case, en-route serving
and terminal delivery.
"""

import asyncio
import random

import pytest

from repro.obs.recorder import Observer
from repro.obs.trace_context import TraceContext
from repro.pastry.network import PastryNetwork
from repro.pastry.routing import (
    RULE_DELIVER_SELF,
    RULE_EN_ROUTE,
    RULE_LEAF,
    RULE_RARE,
    RULE_TABLE,
    DeterministicRouting,
    RandomizedRouting,
    ReplicaAwareRouting,
)
from repro.sim.rng import RngRegistry

#: Attributes every ``hop`` span carries, simulator and live alike.
HOP_SCHEMA = {"node_id", "rule", "hop_index"}


def traced_route(network, key, origin, **route_kwargs):
    """Route *key* from *origin* under a new trace; returns the result
    and the route's hop spans in path order."""
    ctx = TraceContext.root(network.rngs.stream("test-trace-ids"))
    result = network.route(key, origin, trace=ctx, **route_kwargs)
    tree = network.obs.traces.assemble(ctx.trace_id)
    assert tree.name == "route"
    return result, [child for child in tree.children if child.name == "hop"]


def hop_ids(hops):
    return [int(hop.attributes["node_id"], 16) for hop in hops]


def progress_holds(space, key, hops):
    """The route-progress invariant: along the path, the shared prefix
    never shrinks unless the numeric distance shrinks instead."""
    ids = hop_ids(hops)
    for previous, current in zip(ids, ids[1:]):
        prefix_progress = (space.shared_prefix_length(current, key)
                           >= space.shared_prefix_length(previous, key))
        numeric_progress = space.distance(current, key) < space.distance(previous, key)
        if not (prefix_progress or numeric_progress):
            return False
    return True


def vacate_for(network, rng):
    """Find an (origin, key) pair where the key is outside the origin's
    leaf-set range, then empty every routing-table entry the origin
    could use for it, so the next decision takes the rare case."""
    for _ in range(500):
        origin = rng.choice(network.live_ids())
        node = network.nodes[origin]
        key = network.space.random_id(rng)
        if key == origin or node.state.leaf_set.covers(key):
            continue
        while True:
            entry = node.state.routing_table.next_hop_for(key)
            if entry is None:
                return origin, key
            node.state.forget(entry)
    raise AssertionError("could not construct a rare-case scenario")


@pytest.fixture(scope="module")
def net():
    network = PastryNetwork(rngs=RngRegistry(6060), observer=Observer())
    network.build(200, method="join")
    return network


class TestExplainRoute:
    """Every hop of a traced route is explained at decision time."""

    def test_last_hop_is_delivery(self, net):
        rng = net.rngs.stream("tr")
        key = net.space.random_id(rng)
        origin = rng.choice(net.live_ids())
        _, hops = traced_route(net, key, origin)
        assert "next_node" not in hops[-1].attributes
        assert hops[-1].attributes["delivered"] is True
        assert hops[-1].attributes["rule"] == RULE_DELIVER_SELF

    def test_path_matches_plain_route(self, net):
        rng = net.rngs.stream("tr2")
        key = net.space.random_id(rng)
        origin = rng.choice(net.live_ids())
        result, hops = traced_route(net, key, origin)
        assert hop_ids(hops) == result.path == net.route(key, origin).path
        assert [hop.attributes["hop_index"] for hop in hops] == list(range(len(hops)))
        assert [int(hop.attributes["next_node"], 16) for hop in hops[:-1]] == \
            result.path[1:]

    def test_rules_are_recognised(self, net):
        """Across many routes, both the table rule and the leaf rule
        appear (a healthy network routes by prefix and finishes in the
        leaf set)."""
        rng = net.rngs.stream("tr3")
        rules = set()
        for _ in range(100):
            key = net.space.random_id(rng)
            origin = rng.choice(net.live_ids())
            _, hops = traced_route(net, key, origin)
            rules.update(hop.attributes["rule"] for hop in hops)
        assert RULE_TABLE in rules
        assert RULE_LEAF in rules
        assert RULE_DELIVER_SELF in rules

    def test_progress_invariant_holds(self, net):
        rng = net.rngs.stream("tr4")
        for _ in range(150):
            key = net.space.random_id(rng)
            origin = rng.choice(net.live_ids())
            _, hops = traced_route(net, key, origin)
            assert progress_holds(net.space, key, hops), [h.attributes for h in hops]

    def test_prefix_grows_on_table_hops(self, net):
        rng = net.rngs.stream("tr5")
        prefix = net.space.shared_prefix_length
        for _ in range(100):
            key = net.space.random_id(rng)
            origin = rng.choice(net.live_ids())
            _, hops = traced_route(net, key, origin)
            ids = hop_ids(hops)
            for index, hop in enumerate(hops[:-1]):
                if hop.attributes["rule"] == RULE_TABLE:
                    assert prefix(ids[index + 1], key) > prefix(ids[index], key)

    def test_render_shape(self, net):
        rng = net.rngs.stream("tr6")
        key = net.space.random_id(rng)
        origin = rng.choice(net.live_ids())
        ctx = TraceContext.root(rng)
        net.route(key, origin, trace=ctx)
        tree = net.obs.traces.assemble(ctx.trace_id)
        text = tree.render()
        assert text.count("\n") == len(tree.children)
        assert text.count("rule=") == len(tree.children)


class TestRareCase:
    """The rare-case fallback: leaf set does not cover the key and the
    routing-table slot is (made) vacant."""

    def test_rare_rule_at_decision_time(self):
        network = PastryNetwork(rngs=RngRegistry(777), observer=Observer())
        network.build(80, method="join")
        origin, key = vacate_for(network, network.rngs.stream("rare"))

        result, hops = traced_route(network, key, origin)
        assert hop_ids(hops) == result.path
        assert hops[0].attributes["rule"] == RULE_RARE
        assert hops[-1].attributes["rule"] == RULE_DELIVER_SELF
        assert progress_holds(network.space, key, hops)


class TestEnRoute:
    """Lookups satisfied before reaching the root get RULE_EN_ROUTE."""

    @pytest.fixture(scope="class")
    def storage_net(self):
        from repro.core.files import SyntheticData
        from repro.core.network import PastNetwork

        network = PastNetwork(rngs=RngRegistry(4321), cache_policy="none",
                              observer=Observer())
        network.build(40, method="join", capacity_fn=lambda r: 1 << 22)
        client = network.create_client(usage_quota=1 << 30)
        handle = client.insert("en-route.bin", SyntheticData(1, 4000), 3)
        return network, handle

    def test_lookup_from_holder_is_en_route(self, storage_net):
        from repro.core.ids import storage_key
        from repro.core.messages import LookupRequest

        network, handle = storage_net
        holder = next(iter(network.files[handle.file_id].holders))
        _, hops = traced_route(
            network.pastry, storage_key(handle.file_id), holder,
            message=LookupRequest(handle.file_id),
        )
        assert hop_ids(hops) == [holder]
        assert hops[-1].attributes["rule"] == RULE_EN_ROUTE

    def test_lookup_from_afar_ends_en_route(self, storage_net):
        from repro.core.ids import storage_key
        from repro.core.messages import LookupRequest

        network, handle = storage_net
        holders = network.files[handle.file_id].holders
        rng = network.rngs.stream("en-route-test")
        origin = rng.choice(
            [n for n in network.pastry.live_ids() if n not in holders]
        )
        result, hops = traced_route(
            network.pastry, storage_key(handle.file_id), origin,
            message=LookupRequest(handle.file_id),
        )
        assert result.delivered and result.reason == "en-route"
        assert hops[-1].attributes["rule"] == RULE_EN_ROUTE
        assert "next_node" not in hops[-1].attributes


class TestTracedEqualsUntraced:
    """Tracing only labels decisions: each policy's explained decision is
    its plain one, and a traced route walks the untraced route's path."""

    @pytest.fixture(scope="class")
    def holed_net(self):
        """A join-built overlay where a quarter of the nodes lost a
        handful of routing-table entries, so vacant slots (and with them
        the rare case) are common."""
        network = PastryNetwork(rngs=RngRegistry(2718), observer=Observer())
        network.build(120, method="join")
        rng = random.Random(2718)
        for node_id in rng.sample(network.live_ids(), 30):
            state = network.nodes[node_id].state
            entries = sorted(state.routing_table.entries())
            for entry in rng.sample(entries, min(6, len(entries))):
                state.routing_table.remove(entry)
        return network

    @pytest.mark.parametrize("policy", [
        DeterministicRouting(), ReplicaAwareRouting(k=3), RandomizedRouting(),
    ], ids=lambda policy: policy.name)
    def test_explained_decision_is_the_plain_one(self, holed_net, policy):
        rng = random.Random(31)
        rules = set()
        for trial in range(400):
            state = holed_net.nodes[rng.choice(holed_net.live_ids())].state
            key = holed_net.space.random_id(rng)
            plain = policy.next_hop(state, key, random.Random(trial))
            hop, rule = policy.next_hop_explained(state, key, random.Random(trial))
            assert plain == hop, (policy.name, trial)
            rules.add(rule)
        if policy.name == "deterministic":
            assert RULE_RARE in rules

    def test_traced_route_walks_the_untraced_path(self, holed_net):
        rng = random.Random(17)
        for _ in range(200):
            key = holed_net.space.random_id(rng)
            origin = rng.choice(holed_net.live_ids())
            untraced = holed_net.route(key, origin)
            traced = holed_net.route(key, origin, trace=TraceContext.root(rng))
            assert untraced.path == traced.path


class TestOneHopSchema:
    """A simulated route and a live lookup record hop spans of one schema."""

    def test_route_json_and_live_lookup_hops_share_keys(self, capsys):
        import json

        from repro.cli import main

        assert main(["--seed", "11", "route", "--nodes", "80", "--json"]) == 0
        tree = json.loads(capsys.readouterr().out)["span"]
        sim_hops = [child for child in tree["children"] if child["name"] == "hop"]

        live_hops = asyncio.run(_live_lookup_hops())

        assert sim_hops and live_hops
        for attributes in [hop["attributes"] for hop in sim_hops] + live_hops:
            assert HOP_SCHEMA <= set(attributes), attributes
        assert {key for hop in sim_hops for key in hop["attributes"]} & \
            {"shared_prefix", "distance"} == set()


async def _live_lookup_hops():
    """Hop-span attributes of one traced in-process live lookup, issued
    from a node that holds no replica (so it routes at least one hop)."""
    from repro.core.files import SyntheticData
    from repro.core.smartcard import make_uncertified_card
    from repro.live.storage import LiveStorageCluster

    cluster = LiveStorageCluster(seed=9)
    await cluster.start(12, join_concurrency=4)
    card = make_uncertified_card(random.Random(9), usage_quota=1 << 40,
                                 backend="insecure_fast")
    data = SyntheticData(0, 1500)
    certificate = card.issue_file_certificate("schema", data, 3, salt=0, insertion_date=0)
    stored = await cluster.insert(certificate, data, cluster.live_ids()[0])
    origin = next(n for n in cluster.live_ids() if n not in stored["holders"])
    await cluster.lookup(certificate.file_id, origin)
    await cluster.shutdown()
    traces = cluster.obs.traces
    lookup = traces.assemble(traces.trace_ids()[-1])
    assert lookup.name == "live.past-lookup"
    return [span.attributes for span in lookup.walk() if span.name == "hop"]


class TestRemovedShim:
    """repro.analysis.tracing was deleted; lint still flags stale imports."""

    def test_shim_gone(self):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.analysis.tracing")

    def test_lint_knows_the_shim(self):
        from repro.lint.rules import DEPRECATED_MODULES

        assert DEPRECATED_MODULES["repro.analysis.tracing"] == "repro.obs.trace_context"
        assert DEPRECATED_MODULES["repro.obs.spans"] == "repro.obs.trace_context"
