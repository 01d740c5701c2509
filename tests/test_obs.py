"""Tests for the unified observability layer (``repro.obs``).

Covers the metrics registry (labels, snapshots, Prometheus exposition,
histogram percentile edge cases), the typed event bus and its JSONL
schema validation, span trees, and the end-to-end instrumentation of the
overlay and the storage layer -- including the invariant that a network
without an observer behaves identically to one with.
"""

import asyncio
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.live.cluster import LiveCluster
from repro.live.storage import LiveStorageCluster
from repro.obs import (
    NULL_OBSERVER,
    CacheHit,
    EventBus,
    Gauge,
    Histogram,
    InsertCompleted,
    MetricsRegistry,
    NodeFailed,
    NodeJoined,
    Observer,
    OracleRebuilt,
    ReplicaDiverted,
    RouteCompleted,
    Span,
    validate_jsonl,
    validate_record,
)
from repro.pastry.network import PastryNetwork
from repro.pastry.routing import RULE_DELIVER_SELF
from repro.sim.rng import RngRegistry


# ---------------------------------------------------------------------- #
# metrics registry
# ---------------------------------------------------------------------- #

class TestMetricsRegistry:
    def test_counter_identity_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("route.requests", category="lookup")
        b = registry.counter("route.requests", category="lookup")
        c = registry.counter("route.requests", category="join")
        assert a is b and a is not c
        a.increment(3)
        assert registry.counter("route.requests", category="lookup").value == 3
        assert c.value == 0

    def test_label_free_counter_matches_legacy_usage(self):
        registry = MetricsRegistry()
        registry.counter("messages.join").increment(5)
        assert registry.counter("messages.join").value == 5
        assert registry.counter("messages.join").display_name == "messages.join"

    def test_display_name_renders_sorted_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("x", b="2", a="1")
        assert counter.display_name == 'x{a="1",b="2"}'

    def test_gauge_set_increment_decrement(self):
        gauge = Gauge("bytes")
        gauge.set(100.0)
        gauge.increment(50)
        gauge.decrement(25)
        assert gauge.value == 125.0
        gauge.reset()
        assert gauge.value == 0.0

    def test_snapshot_is_deterministic_and_sorted(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("z.last").increment()
            registry.counter("a.first", tag="t").increment(2)
            registry.gauge("g").set(1.5)
            registry.histogram("h").extend([1, 2, 3])
            return registry.snapshot()

        first, second = build(), build()
        assert first == second
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        assert list(first["counters"]) == sorted(first["counters"])

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_reset_empties_a_counters_by_label_memo(self):
        """A memo holder keeps the dict, not the counters: after a reset
        its next lookup misses and registers a fresh counter."""
        registry = MetricsRegistry()
        memo = registry.counters_by_label("live.messages")
        memo["route"] = registry.counter("live.messages", kind="route")
        memo["route"].increment()
        registry.reset()
        assert memo == {}
        assert registry.counters_by_label("live.messages") is memo
        memo["route"] = registry.counter("live.messages", kind="route")
        memo["route"].increment()
        assert registry.counters() == [('live.messages{kind="route"}', 1)]

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("route.requests", category="join").increment(7)
        registry.gauge("storage.used_bytes").set(42.0)
        registry.histogram("route.hops").extend([1, 2, 3, 4])
        text = registry.to_prometheus()
        assert '# TYPE route_requests_total counter' in text
        assert 'route_requests_total{category="join"} 7' in text
        assert '# TYPE storage_used_bytes gauge' in text
        assert 'storage_used_bytes 42' in text
        assert '# TYPE route_hops summary' in text
        assert 'route_hops_count 4' in text
        assert 'route_hops_sum 10' in text
        assert 'quantile="0.5"' in text

    def test_legacy_shims_removed(self):
        # The PR 2/3 re-export shims are gone; the obs layer is the only
        # import surface now (NEW001 still flags any stale import).
        import importlib

        for shim in ("repro.sim.trace", "repro.analysis.tracing"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(shim)


class TestHistogramStatistics:
    """Coverage migrated from the deleted shim tests (test_sim_trace)."""

    def test_mean(self):
        histogram = Histogram()
        histogram.extend([1, 2, 3, 4])
        assert histogram.mean == 2.5

    def test_empty_statistics_are_zero(self):
        histogram = Histogram()
        assert histogram.mean == 0.0
        assert histogram.stddev == 0.0

    def test_stddev_matches_manual(self):
        import math

        histogram = Histogram()
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        histogram.extend(values)
        mean = sum(values) / len(values)
        expected = math.sqrt(
            sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        )
        assert histogram.stddev == pytest.approx(expected)

    def test_min_max(self):
        histogram = Histogram()
        histogram.extend([5, -2, 9])
        assert histogram.minimum == -2
        assert histogram.maximum == 9

    def test_bucketize(self):
        histogram = Histogram()
        histogram.extend([0.1, 0.9, 1.5, 2.2])
        assert histogram.bucketize(1.0) == {0.0: 2, 1.0: 1, 2.0: 1}

    def test_bucketize_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            Histogram().bucketize(0)

    def test_frequency(self):
        histogram = Histogram()
        histogram.extend([1, 1, 2])
        assert histogram.frequency() == {1: 2, 2: 1}

    def test_summary_keys(self):
        histogram = Histogram()
        histogram.extend([1, 2, 3])
        summary = histogram.summary()
        assert set(summary) == {
            "count", "mean", "stddev", "min", "p50", "p95", "p99", "max"
        }
        assert summary["count"] == 3

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=2, max_size=50))
    def test_mean_within_min_max(self, values):
        histogram = Histogram()
        histogram.extend(values)
        assert histogram.minimum - 1e-6 <= histogram.mean <= histogram.maximum + 1e-6

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=50))
    def test_percentiles_monotone(self, values):
        histogram = Histogram()
        histogram.extend(values)
        assert (histogram.percentile(25)
                <= histogram.percentile(50)
                <= histogram.percentile(75))


class TestHistogramEdgeCases:
    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile(50) == 0.0

    def test_out_of_range_q_raises_even_when_empty(self):
        with pytest.raises(ValueError):
            Histogram().percentile(101)
        with pytest.raises(ValueError):
            Histogram().percentile(-0.1)

    def test_single_sample_is_every_percentile(self):
        histogram = Histogram()
        histogram.add(7.5)
        for q in (0, 1, 50, 99, 100):
            assert histogram.percentile(q) == 7.5

    def test_p0_and_p100_are_exact_extremes(self):
        histogram = Histogram()
        histogram.extend([3, 1, 4, 1, 5])
        assert histogram.percentile(0) == 1
        assert histogram.percentile(100) == 5

    def test_interpolation(self):
        histogram = Histogram()
        histogram.extend([10, 20])
        assert histogram.percentile(50) == 15.0

    def test_summary_and_moments(self):
        histogram = Histogram()
        histogram.extend([2, 4, 6])
        assert histogram.mean == 4.0
        assert histogram.count == 3
        summary = histogram.summary()
        assert summary["min"] == 2 and summary["max"] == 6
        histogram.reset()
        assert histogram.count == 0 and histogram.sum == 0.0


# ---------------------------------------------------------------------- #
# event bus + schema
# ---------------------------------------------------------------------- #

class TestEventBus:
    def test_publish_assigns_sequence_numbers(self):
        bus = EventBus()
        bus.publish(NodeFailed(node_id=1))
        bus.publish(NodeFailed(node_id=2))
        records = bus.records()
        assert [r.seq for r in records] == [0, 1]
        assert all(r.time == 0.0 for r in records)

    def test_clock_supplies_timestamps(self):
        now = {"t": 0.0}
        bus = EventBus(clock=lambda: now["t"])
        bus.publish(NodeFailed(node_id=1))
        now["t"] = 12.5
        bus.publish(NodeFailed(node_id=2))
        assert [r.time for r in bus.records()] == [0.0, 12.5]

    def test_subscriber_sees_records(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.publish(OracleRebuilt(nodes=10))
        assert len(seen) == 1 and seen[0].event.nodes == 10

    def test_jsonl_is_deterministic_and_valid(self):
        def build():
            bus = EventBus()
            bus.publish(RouteCompleted(
                key=5, origin=1, destination=2, hops=3,
                delivered=True, reason="delivered", category="route",
            ))
            bus.publish(NodeJoined(node_id=9, contact_id=1, messages=14, route_hops=2))
            return bus.to_jsonl()

        first, second = build(), build()
        assert first == second
        assert validate_jsonl(first) == []
        decoded = [json.loads(line) for line in first.splitlines()]
        assert decoded[0]["kind"] == "route-completed"
        assert decoded[1]["kind"] == "node-joined"

    def test_validate_rejects_bad_records(self):
        assert validate_record({"kind": "no-such-event"})
        problems = validate_record(
            {"kind": "node-failed", "seq": 0, "time": 0.0}
        )
        assert any("node_id" in p for p in problems)
        problems = validate_record({
            "kind": "node-failed", "seq": 0, "time": 0.0,
            "node_id": "not-an-int",
        })
        assert any("node_id" in p for p in problems)
        problems = validate_record({
            "kind": "node-failed", "seq": 0, "time": 0.0,
            "node_id": 4, "surprise": 1,
        })
        assert any("surprise" in p for p in problems)

    def test_validate_jsonl_flags_corrupt_lines(self):
        text = '{"kind": "node-failed", "seq": 0, "time": 0.0, "node_id": 1}\nnot json\n'
        problems = validate_jsonl(text)
        assert len(problems) == 1 and "line 2" in problems[0]

    def test_bool_fields_are_not_confused_with_int(self):
        record = json.loads(EventBus().publish(RouteCompleted(
            key=1, origin=1, destination=None, hops=0,
            delivered=False, reason="dropped", category="route",
        )).to_json())
        assert validate_record(record) == []
        record["delivered"] = 1  # int is not an acceptable bool
        assert any("delivered" in p for p in validate_record(record))


# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #

class TestSpan:
    def test_tree_structure_and_walk(self):
        root = Span("route", key=1)
        a = root.child("hop", node_id=1)
        root.child("hop", node_id=2)
        a.child("repair")
        assert [s.name for s in root.walk()] == ["route", "hop", "repair", "hop"]

    def test_to_dict_sorted_and_deterministic(self):
        root = Span("op", b=2, a=1)
        root.child("hop", z=3, m=4)
        document = root.to_dict()
        assert list(document["attributes"]) == ["a", "b"]
        assert list(document["children"][0]["attributes"]) == ["m", "z"]
        assert root.to_json() == root.to_json()

    def test_set_merges_outcome(self):
        span = Span("route")
        span.set(hops=4, delivered=True)
        assert span.attributes["hops"] == 4

    def test_render_ascii(self):
        root = Span("route", key=1)
        root.child("hop", node_id=7)
        text = root.render(format_value=str)
        lines = text.splitlines()
        assert lines[0].startswith("route")
        assert lines[1].startswith("  hop")


# ---------------------------------------------------------------------- #
# observer plumbing
# ---------------------------------------------------------------------- #

class TestObserver:
    def test_null_observer_is_falsy_and_inert(self):
        assert not NULL_OBSERVER
        assert NULL_OBSERVER.enabled is False
        assert NULL_OBSERVER.span("route") is None
        NULL_OBSERVER.emit(NodeFailed(node_id=1))  # must not raise
        assert NULL_OBSERVER.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_observer_is_truthy_and_records(self):
        observer = Observer()
        assert observer and observer.enabled
        observer.emit(NodeFailed(node_id=3))
        assert observer.bus.kinds() == ["node-failed"]
        span = observer.span("route")
        observer.record_span(span)
        assert observer.spans == [span]


# ---------------------------------------------------------------------- #
# overlay integration
# ---------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def observed_net():
    observer = Observer()
    network = PastryNetwork(rngs=RngRegistry(2024), observer=observer)
    network.build(60, method="join")
    return network, observer


class TestOverlayInstrumentation:
    def test_route_metrics_and_event(self, observed_net):
        network, observer = observed_net
        before = len(observer.bus)
        requests = observer.metrics.counter("route.requests", category="route")
        count_before = requests.value
        rng = network.rngs.stream("obs-route")
        key = network.space.random_id(rng)
        origin = rng.choice(network.live_ids())
        result = network.route(key, origin)
        assert requests.value == count_before + 1
        event = observer.bus.records()[-1].event
        assert isinstance(event, RouteCompleted)
        assert event.key == key and event.hops == result.hops
        assert event.destination == result.path[-1]
        assert len(observer.bus) == before + 1

    def test_traced_route_span_matches_path(self, observed_net):
        network, observer = observed_net
        rng = network.rngs.stream("obs-span")
        key = network.space.random_id(rng)
        origin = rng.choice(network.live_ids())
        result = network.route(key, origin, trace=True)
        span = result.span
        assert span is not None and span.name == "route"
        hop_ids = [child.attributes["node_id"] for child in span.children]
        assert hop_ids == result.path
        assert span.children[-1].attributes["rule"] == RULE_DELIVER_SELF
        assert span.attributes["delivered"] is True
        assert span.attributes["hops"] == result.hops

    def test_route_result_identical_with_and_without_observer(self):
        def run(observer):
            network = PastryNetwork(rngs=RngRegistry(515), observer=observer)
            network.build(50, method="join")
            rng = network.rngs.stream("cmp")
            results = []
            for _ in range(20):
                key = network.space.random_id(rng)
                origin = rng.choice(network.live_ids())
                result = network.route(key, origin)
                results.append((result.key, tuple(result.path),
                                result.delivered, result.reason))
            return results

        assert run(None) == run(Observer())

    def test_join_event_and_histogram(self, observed_net):
        network, observer = observed_net
        joins = [e for e in observer.bus.events() if isinstance(e, NodeJoined)]
        # 60-node join build = 59 arrivals through the protocol.
        assert len(joins) == 59
        histogram = observer.metrics.histogram("join.messages")
        assert histogram.count == 59
        assert histogram.minimum > 0

    def test_traced_join_records_span(self):
        from repro.pastry.join import join_network

        observer = Observer()
        network = PastryNetwork(rngs=RngRegistry(99), observer=observer)
        network.build(20, method="join")
        newcomer = network.add_node()
        contact = network._nearest_live_contact(newcomer)
        join_network(network, newcomer, contact, trace=True)
        assert len(observer.spans) == 1
        span = observer.spans[0]
        assert span.name == "join"
        assert span.attributes["node_id"] == newcomer.node_id
        assert [c.name for c in span.children] == ["route"]
        assert span.children[0].children, "route span has no hop children"

    def test_failure_and_recovery_events(self):
        observer = Observer()
        network = PastryNetwork(rngs=RngRegistry(7), observer=observer)
        network.build(12, method="join")
        victim = network.live_ids()[3]
        network.mark_failed(victim)
        network.mark_failed(victim)  # idempotent: one event only
        network.mark_recovered(victim)
        kinds = observer.bus.kinds()
        assert kinds.count("node-failed") == 1
        assert kinds.count("node-recovered") == 1
        assert observer.metrics.counter("node.failures").value == 1

    def test_oracle_rebuild_event(self):
        observer = Observer()
        network = PastryNetwork(rngs=RngRegistry(11), observer=observer)
        network.build(30, method="oracle")
        rebuilds = [e for e in observer.bus.events() if isinstance(e, OracleRebuilt)]
        assert len(rebuilds) == 1 and rebuilds[0].nodes == 30

    def test_message_counters_share_observer_registry(self, observed_net):
        network, observer = observed_net
        assert network.stats is observer.metrics
        assert observer.metrics.counter("messages.join").value > 0


# ---------------------------------------------------------------------- #
# storage-layer integration
# ---------------------------------------------------------------------- #

class TestStorageInstrumentation:
    @pytest.fixture(scope="class")
    def saturated(self):
        """The diversion recipe: small capacities, 4 kB files, insert
        until a diversion pointer appears (mirrors test_core_network)."""
        from repro.core.errors import InsertRejectedError
        from repro.core.files import SyntheticData
        from repro.core.network import PastNetwork

        observer = Observer()
        network = PastNetwork(
            rngs=RngRegistry(99), cache_policy="none", observer=observer
        )
        network.build(
            30, method="join", capacity_fn=lambda r: r.randint(150_000, 400_000)
        )
        client = network.create_client(usage_quota=1 << 40)
        for i in range(4000):
            try:
                client.insert(f"f{i}", SyntheticData(i, 4_000), replication_factor=3)
            except InsertRejectedError:
                break
            if observer.metrics.counter("storage.diverted").value:
                break
        return network, observer

    def test_insert_and_diversion_metrics(self, saturated):
        network, observer = saturated
        metrics = observer.metrics
        inserted = metrics.counter("storage.insert").value
        assert inserted > 0
        assert metrics.counter("storage.diverted").value >= 1
        diversions = [
            e for e in observer.bus.events() if isinstance(e, ReplicaDiverted)
        ]
        assert diversions and diversions[0].size == 4_000
        assert diversions[0].primary_id != diversions[0].target_id
        completions = [
            e for e in observer.bus.events() if isinstance(e, InsertCompleted)
        ]
        assert len(completions) == inserted
        assert all(c.replicas == 3 for c in completions)

    def test_byte_gauges_track_store(self, saturated):
        network, observer = saturated
        used = observer.metrics.gauge("storage.used_bytes").value
        assert used == sum(n.store.used for n in network.past_nodes())

    def test_reject_counter_labelled_by_reason(self):
        from repro.core.errors import InsertRejectedError
        from repro.core.files import SyntheticData
        from repro.core.network import PastNetwork

        observer = Observer()
        network = PastNetwork(
            rngs=RngRegistry(321), cache_policy="none", observer=observer
        )
        network.build(12, method="join", capacity_fn=lambda r: 10_000)
        client = network.create_client(usage_quota=1 << 40)
        with pytest.raises(InsertRejectedError):
            client.insert("huge", SyntheticData(1, 9_000), replication_factor=3)
        rejects = observer.metrics.counter("storage.reject", reason="no-space")
        assert rejects.value > 0
        assert any(
            e.reason == "no-space" for e in observer.bus.events()
            if e.kind == "insert-rejected"
        )

    def test_cache_hit_event(self):
        from repro.core.files import SyntheticData
        from repro.core.network import PastNetwork

        observer = Observer()
        network = PastNetwork(rngs=RngRegistry(1212), observer=observer)
        network.build(40, method="join", capacity_fn=lambda r: 1 << 22)
        client = network.create_client(usage_quota=1 << 40)
        handle = client.insert("hot.bin", SyntheticData(5, 2_000), 3)
        # First lookup caches along the path; repeated lookups from many
        # origins eventually hit one of those caches.
        rng = network.rngs.stream("cache-probe")
        for _ in range(30):
            origin = rng.choice(network.pastry.live_ids())
            reader = network.create_client(usage_quota=0, access_node=origin)
            reader.lookup(handle.file_id)
            if observer.metrics.counter("cache.hits").value:
                break
        assert observer.metrics.counter("cache.hits").value > 0
        hits = [e for e in observer.bus.events() if isinstance(e, CacheHit)]
        assert hits and hits[0].file_id == handle.file_id


# ---------------------------------------------------------------------- #
# live cluster
# ---------------------------------------------------------------------- #

LIVE_CLUSTER_CLASSES = (LiveCluster, LiveStorageCluster)


class TestLiveClusterMetrics:
    def test_prometheus_endpoint_text(self):
        # Both cluster classes inside the one test (not parametrized), so
        # the test keeps the id earlier suites recorded it under.
        async def scenario(cluster_class):
            cluster = cluster_class(seed=3)
            await cluster.start(8)
            origin = cluster.live_ids()[0]
            await cluster.route(cluster.space.random_id(
                cluster.rngs.stream("probe")), origin)
            text = cluster.metrics_text()
            await cluster.shutdown()
            return cluster, text

        for cluster_class in LIVE_CLUSTER_CLASSES:
            cluster, text = asyncio.run(scenario(cluster_class))
            assert "live_nodes 8" in text, cluster_class.__name__
            assert "live_joins_total 7" in text
            assert "# TYPE live_messages_total counter" in text
            assert "live_route_hops_count 1" in text
            joins = [e for e in cluster.obs.bus.events() if isinstance(e, NodeJoined)]
            assert len(joins) == 7

    @pytest.mark.parametrize("cluster_class", LIVE_CLUSTER_CLASSES)
    def test_live_nodes_gauge_follows_kills(self, cluster_class):
        async def scenario():
            cluster = cluster_class(seed=3)
            await cluster.start(6)
            cluster.kill(cluster.live_ids()[0])
            text = cluster.metrics_text()
            await cluster.shutdown()
            return text

        assert "live_nodes 5" in asyncio.run(scenario()).splitlines()
