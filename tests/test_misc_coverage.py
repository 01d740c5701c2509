"""Coverage for small utility paths the main suites route around."""

import pytest

from repro.core.files import SyntheticData
from repro.core.messages import InsertOutcome, ReclaimOutcome
from repro.core.network import PastNetwork
from repro.core.storage_manager import summarize_utilization
from repro.sim.rng import RngRegistry


class TestSummarizeUtilization:
    def test_empty_network(self):
        summary = summarize_utilization([])
        assert summary["global_utilization"] == 0.0
        assert summary["node_count"] == 0

    def test_mixed_nodes(self):
        network = PastNetwork(rngs=RngRegistry(55))
        network.build(10, method="oracle", capacity_fn=lambda r: 1000)
        client = network.create_client(usage_quota=1 << 20)
        client.insert("a", SyntheticData(1, 50), replication_factor=2)
        summary = summarize_utilization(network.live_past_nodes())
        assert summary["total_capacity"] == 10_000
        assert summary["total_used"] == 100
        assert summary["global_utilization"] == pytest.approx(0.01)
        assert 0.0 <= summary["per_node_min"] <= summary["per_node_max"]


class TestMessageDataclasses:
    def test_insert_outcome_defaults(self):
        outcome = InsertOutcome(success=False, reason="no-space")
        assert outcome.receipts == []
        assert outcome.diverted_replicas == 0

    def test_reclaim_outcome_defaults(self):
        outcome = ReclaimOutcome()
        assert outcome.receipts == []
        assert not outcome.denied


class TestRouteResultProperties:
    def test_destination_none_when_failed(self):
        from repro.pastry.network import RouteResult

        failed = RouteResult(key=1, path=[5, 6], delivered=False, reason="dropped")
        assert failed.destination is None
        assert failed.hops == 1

    def test_empty_path_hops(self):
        from repro.pastry.network import RouteResult

        degenerate = RouteResult(key=1, path=[], delivered=False, reason="x")
        assert degenerate.hops == 0


class TestNodeLoadCounters:
    def test_serving_increments_counters(self):
        network = PastNetwork(rngs=RngRegistry(56))
        network.build(20, method="join", capacity_fn=lambda r: 1 << 20)
        client = network.create_client(usage_quota=1 << 20)
        handle = client.insert("f", SyntheticData(1, 500), replication_factor=3)
        reader = network.create_client(usage_quota=0)
        result = reader.lookup_verbose(handle.file_id)
        server = network.past_node(result.response.serving_node)
        assert server.lookups_served >= 1
        assert server.bytes_served >= 500

    def test_total_served_matches_lookups(self):
        network = PastNetwork(rngs=RngRegistry(57), cache_policy="none")
        network.build(20, method="join", capacity_fn=lambda r: 1 << 20)
        client = network.create_client(usage_quota=1 << 20)
        handle = client.insert("f", SyntheticData(1, 500), replication_factor=3)
        for _ in range(10):
            network.create_client(usage_quota=0).lookup(handle.file_id)
        total = sum(n.lookups_served for n in network.live_past_nodes())
        assert total == 10


class TestPastryStatsCategories:
    def test_categories_accumulate_separately(self):
        network = PastNetwork(rngs=RngRegistry(58))
        network.build(15, method="join", capacity_fn=lambda r: 1 << 20)
        client = network.create_client(usage_quota=1 << 20)
        handle = client.insert("f", SyntheticData(1, 100), replication_factor=3)
        client.reclaim(handle)
        counters = dict(network.pastry.stats.counters())
        assert counters.get("messages.join", 0) > 0
        assert counters.get("messages.insert", 0) >= 0
        assert counters.get("messages.reclaim", 0) >= 0
