"""Tests for the bandwidth cost ledger (``repro.obs.ledger``) and its
wire-size model (``repro.obs.cost_model``).

Covers the accounting primitives, the taxonomy contract (every priced
message kind maps to a known activity category), the observer-off fast
path (a network without an observer never touches a ledger), charging on
both rails (simulated overlay counters and the live asyncio transport),
and byte-identical ledger JSON across repeated seeded chaos runs.
"""

import asyncio
import json
import random

from repro.obs.cost_model import (
    CATEGORIES,
    CATEGORY_CONTROL,
    DEFAULT_COST,
    MESSAGE_COSTS,
    STATE_ENTRY_BYTES,
    CostModel,
    state_bytes,
)
from repro.obs.ledger import CostLedger
from repro.obs.recorder import NULL_OBSERVER, Observer


class TestCostModel:
    def test_every_kind_maps_to_a_known_category(self):
        model = CostModel()
        for kind in MESSAGE_COSTS:
            assert model.category(kind) in CATEGORIES
            assert model.bytes_of(kind) > 0

    def test_unknown_kind_falls_back_to_control(self):
        model = CostModel()
        assert model.cost("no-such-kind") == DEFAULT_COST
        assert model.category("no-such-kind") == CATEGORY_CONTROL

    def test_costs_are_swappable(self):
        model = CostModel(costs={"ping": ("control", 9)})
        assert model.bytes_of("ping") == 9
        assert model.bytes_of("route") == DEFAULT_COST[1]

    def test_state_bytes_is_linear_in_entries(self):
        assert state_bytes(0) == 0
        assert state_bytes(10) == 10 * STATE_ENTRY_BYTES


class TestCostLedger:
    def test_charge_accumulates_messages_and_bytes(self):
        ledger = CostLedger()
        size = ledger.charge("route")
        ledger.charge("route", count=2)
        assert ledger.total_messages() == 3
        assert ledger.total_bytes() == 3 * size
        assert ledger.category_messages("route") == 3

    def test_size_override_beats_the_model(self):
        ledger = CostLedger()
        ledger.charge("store-request", size=123)
        assert ledger.total_bytes() == 123

    def test_per_node_attribution_and_top_nodes(self):
        ledger = CostLedger()
        ledger.charge("route", node=7)
        ledger.charge("route", node=7)
        ledger.charge("route", node=3)
        top = ledger.top_nodes(limit=2)
        assert [entry["node"] for entry in top] == [7, 3]
        assert top[0]["bytes"] == 2 * top[1]["bytes"]

    def test_rates_are_bytes_per_node_per_second(self):
        ledger = CostLedger()
        ledger.charge("route", size=600)
        rates = ledger.rates(node_count=3, duration=100.0)
        assert rates["route"] == 2.0

    def test_snapshot_is_json_stable(self):
        ledger = CostLedger()
        ledger.charge("join", node=2)
        ledger.charge("insert", node=1)
        first = json.dumps(ledger.snapshot(), sort_keys=True)
        second = json.dumps(ledger.snapshot(), sort_keys=True)
        assert first == second


class TestUnpricedKinds:
    """CostLedger's runtime twin of lint rule CONF001: an unpriced kind
    still charges (DEFAULT_COST fallback) but visibly, not silently."""

    def test_unpriced_charges_are_counted_per_kind(self):
        ledger = CostLedger()
        ledger.charge("mystery")
        ledger.charge("mystery", count=2)
        ledger.charge("other-mystery")
        ledger.charge("route")  # priced: must not appear
        assert ledger.unpriced == {"mystery": 3, "other-mystery": 1}
        assert ledger.unpriced_total() == 4

    def test_priced_traffic_reports_no_unpriced(self):
        ledger = CostLedger()
        ledger.charge("route")
        ledger.charge("insert", size=2048)
        assert ledger.unpriced == {}
        assert ledger.unpriced_total() == 0

    def test_snapshot_and_summary_expose_the_gap(self):
        ledger = CostLedger()
        ledger.charge("mystery")
        assert ledger.snapshot()["unpriced"] == {"mystery": 1}
        assert ledger.summary()["unpriced_messages"] == 1

    def test_hook_fires_every_charge_with_first_flag(self):
        calls = []
        ledger = CostLedger()
        ledger.on_unpriced = lambda *args: calls.append(args)
        ledger.charge("mystery")
        ledger.charge("mystery")
        assert calls == [
            ("mystery", DEFAULT_COST[0], DEFAULT_COST[1], True),
            ("mystery", DEFAULT_COST[0], DEFAULT_COST[1], False),
        ]

    def test_hook_reports_modelled_fallback_not_size_override(self):
        calls = []
        ledger = CostLedger()
        ledger.on_unpriced = lambda *args: calls.append(args)
        ledger.charge("mystery", size=9999)
        assert calls[0][2] == DEFAULT_COST[1]
        # The override still governs what was actually charged.
        assert ledger.total_bytes() == 9999

    def test_observer_counts_and_warns_once(self):
        obs = Observer()
        obs.ledger.charge("mystery")
        obs.ledger.charge("mystery")
        counter = obs.metrics.counter("ledger.unpriced", kind="mystery")
        assert counter.value == 2
        assert obs.bus.kinds() == ["unpriced-kind-charged"]
        event = obs.bus.events()[0]
        assert event.message_kind == "mystery"
        assert event.fallback_category == DEFAULT_COST[0]
        assert event.fallback_bytes == DEFAULT_COST[1]

    def test_unpriced_event_records_validate_against_the_schema(self):
        from repro.obs.events import validate_jsonl

        obs = Observer()
        obs.ledger.charge("mystery")
        assert validate_jsonl(obs.bus.to_jsonl()) == []


class TestObserverWiring:
    def test_observer_owns_a_ledger(self):
        assert isinstance(Observer().ledger, CostLedger)

    def test_null_observer_has_no_ledger(self):
        assert NULL_OBSERVER.ledger is None

    def test_uninstrumented_network_skips_the_ledger(self):
        from repro.pastry.network import PastryNetwork
        from repro.sim.rng import RngRegistry

        network = PastryNetwork(rngs=RngRegistry(3))
        network.build(32, method="oracle")
        assert network._ledger is None
        key = network.space.random_id(random.Random(1))
        result = network.route(key, network.live_ids()[0])
        assert result.delivered

    def test_instrumented_build_charges_join_traffic(self):
        from repro.pastry.network import PastryNetwork
        from repro.sim.rng import RngRegistry

        observer = Observer()
        network = PastryNetwork(rngs=RngRegistry(3), observer=observer)
        network.build(48, method="join")
        ledger = observer.ledger
        assert ledger.category_bytes("join") > 0
        # Counter and ledger views agree on message counts.
        assert (
            ledger.category_messages("join")
            == observer.metrics.counter("messages.join").value
        )


class TestLiveTransportCharging:
    def test_live_data_messages_are_priced_by_payload(self):
        from repro.core.files import SyntheticData
        from repro.core.smartcard import make_uncertified_card
        from repro.live.storage import LiveStorageCluster

        async def scenario():
            cluster = LiveStorageCluster(seed=51)
            await cluster.start(12, join_concurrency=4)
            rng = random.Random(5)
            card = make_uncertified_card(
                rng, usage_quota=1 << 30, backend="insecure_fast"
            )
            data = SyntheticData(0, 2048)
            certificate = card.issue_file_certificate(
                "ledger-live", data, 3, salt=0, insertion_date=0
            )
            await cluster.insert(
                certificate, data, origin=cluster.live_ids()[0]
            )
            await cluster.lookup(
                certificate.file_id, origin=cluster.live_ids()[-1]
            )
            await cluster.shutdown()
            return cluster.obs.ledger

        ledger = asyncio.run(scenario())
        # Three replicas of a 2 KiB file dominate client-data traffic;
        # each store-request is priced by its actual payload length.
        assert ledger.category_bytes("client-data") > 3 * 2048
        assert ledger.category_bytes("join") > 0
        assert ledger.top_nodes(limit=5)


class TestChaosLedgerDeterminism:
    def test_ledger_json_byte_identical_across_runs(self):
        from repro.faults.chaos import run_chaos

        first = run_chaos(seed=11, nodes=20, files=6, duration=80.0)
        second = run_chaos(seed=11, nodes=20, files=6, duration=80.0)
        assert (
            json.dumps(first["ledger"], sort_keys=True)
            == json.dumps(second["ledger"], sort_keys=True)
        )

    def test_chaos_report_declares_point_claims_and_spends(self):
        from repro.faults.chaos import run_chaos
        from repro.obs.claims import POINT_CLAIMS

        report = run_chaos(seed=11, nodes=20, files=6, duration=80.0)
        assert report["claims"] == list(POINT_CLAIMS)
        ledger = report["ledger"]
        assert ledger["total_bytes"] > 0
        # A chaos run exercises joins, client data and repair traffic.
        for category in ("join", "client-data", "repair"):
            assert ledger["by_category"][category]["bytes"] > 0
