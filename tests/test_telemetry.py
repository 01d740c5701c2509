"""The telemetry plane, end to end.

In-process coverage: the collector scrapes a live cluster through the
priced telemetry message kinds, federates every node's registry under
``node=`` labels into one strict-parser-clean Prometheus exposition,
samples that federated registry into windowed series, and renders
health verdicts and console frames.  SLO parsing/evaluation and the
multi-window burn-rate rule are pinned as unit facts, and ``repro
load`` feeds its burn rates from windows one ``--scrape-interval``
wide.  A registry export survives the wire exactly.  The socket class
re-runs the scrape workload over real TCP and demands byte-identical
federated artifacts -- the cross-transport parity the tentpole
promises.
"""

import asyncio
import json
import random

import pytest

from repro.cli import main
from repro.core.files import SyntheticData
from repro.core.smartcard import make_uncertified_card
from repro.live.net import SocketTransport, decode_message, encode_message
from repro.live.storage import LiveStorageCluster
from repro.live.transport import Message, well_formed
from repro.obs import slo
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    CHAOS_SLO,
    DEFAULT_LOAD_SLO,
    SLOError,
    burn_windows,
    evaluate_slo,
    format_verdict,
    parse_slo,
)
from repro.obs.telemetry import (
    TELEMETRY_METRIC_HELP,
    TelemetryCollector,
    TelemetryError,
    render_console,
)
from repro.obs.validate import check_prometheus_text


def run(coroutine):
    return asyncio.run(coroutine)


def make_certs(count, k=3, size=1500, seed=1):
    rng = random.Random(seed)
    card = make_uncertified_card(rng, usage_quota=1 << 40, backend="insecure_fast")
    pairs = []
    for i in range(count):
        data = SyntheticData(i, size)
        certificate = card.issue_file_certificate(
            f"f{i}", data, k, salt=i, insertion_date=0
        )
        pairs.append((certificate, data))
    return pairs


async def _collected_cluster(transport, nodes=8, files=4):
    """Boot, run a deterministic direct insert+lookup workload, then
    scrape and probe the whole cluster and sample its series.  Returns
    plain JSON-able artifacts plus per-node ledger summaries."""
    cluster = LiveStorageCluster(seed=23, transport=transport)
    await cluster.start(nodes, join_concurrency=1)
    collector = TelemetryCollector(cluster, window=1.0)
    origin = cluster.live_ids()[0]
    for certificate, data in make_certs(files):
        result = await cluster.insert(certificate, data, origin)
        assert result["success"]
        found = await cluster.lookup(certificate.file_id, origin)
        assert found["data"] == data
    snapshot = await collector.scrape_all()
    collector.sample(at=0.0)
    health = await collector.probe_all()
    exposition = collector.to_prometheus()
    ledgers = dict(collector.ledgers)
    await cluster.shutdown()
    return {
        "snapshot": snapshot,
        "series": collector.timeseries.snapshot(),
        "health": health,
        "prometheus": exposition,
        "ledgers": ledgers,
        "labels": [collector.label_of(node_id)
                   for node_id in sorted(cluster.live_ids())],
        "collector": collector,
    }


class TestCollectorInProcess:
    @pytest.fixture(scope="class")
    def collected(self):
        return run(_collected_cluster(None))

    def test_federated_exposition_is_strict_parser_clean(self, collected):
        assert check_prometheus_text(collected["prometheus"]) == []

    def test_every_node_appears_under_its_label(self, collected):
        for label in collected["labels"]:
            assert f'node="{label}"' in collected["prometheus"]
        joined = [name for name in collected["snapshot"]["gauges"]
                  if name.startswith("node.joined{")]
        assert len(joined) == len(collected["labels"])
        for name in joined:
            assert collected["snapshot"]["gauges"][name] == 1.0

    def test_state_gauges_cover_the_documented_families(self, collected):
        for family in TELEMETRY_METRIC_HELP:
            assert any(name.startswith(family + "{")
                       for name in collected["snapshot"]["gauges"]), family

    def test_series_carries_message_deltas_and_store_levels(self, collected):
        counters = collected["series"]["counters"]
        assert any(name.startswith("live.messages{") for name in counters)
        assert collected["series"]["window_seconds"] == 1.0
        # Everything was sampled at t=0: one window, index 0.
        assert collected["series"]["latest_index"] == 0

    def test_health_probe_reports_every_node_healthy(self, collected):
        assert collected["health"]["healthy"] is True
        assert len(collected["health"]["nodes"]) == len(collected["labels"])
        for node in collected["health"]["nodes"]:
            assert node["checks"] == {"running": True, "joined": True,
                                      "mailbox_headroom": True}
            assert node["resynced_bytes"] == 0

    def test_ledger_summaries_are_per_node_and_priced(self, collected):
        for label in collected["labels"]:
            summary = collected["ledgers"][label]
            assert summary["total_messages"] > 0
            assert summary["unpriced_messages"] == 0

    def test_rescrape_is_idempotent_not_additive(self, collected):
        """Federation rebuilds from the latest per-node exports, so the
        snapshot after N scrapes of a quiesced cluster equals the
        snapshot after N+1."""

        async def rescrape():
            cluster = LiveStorageCluster(seed=23, transport=None)
            await cluster.start(4, join_concurrency=1)
            collector = TelemetryCollector(cluster, window=1.0)
            first = await collector.scrape_all()
            again = await collector.scrape_all()
            await cluster.shutdown()
            return first, again

        first, again = run(rescrape())
        # The only drift a re-scrape may show is the scrape traffic
        # itself (telemetry kinds in live.messages).
        for name, value in first["gauges"].items():
            if name.startswith(("node.mailbox", "wire.")):
                continue
            assert again["gauges"][name] == value

    def test_console_frame_renders_cluster_rows(self, collected):
        text = render_console(collected["collector"], collected["health"],
                              frame=3)
        assert "frame 3" in text and "HEALTHY" in text
        assert "messages by kind:" in text
        for node in collected["health"]["nodes"]:
            assert str(node["node"])[:12] in text

    def test_unreachable_node_degrades_probe_not_collector(self):
        async def scenario():
            cluster = LiveStorageCluster(seed=23, transport=None)
            await cluster.start(4, join_concurrency=1)
            collector = TelemetryCollector(cluster, timeout=0.2, window=1.0)
            victim = cluster.live_ids()[-1]
            cluster.transport.mark_dead(victim)
            # mark_dead drops the victim from live_ids(); pin the target
            # list so the collector still tries (and fails) to reach it.
            targets = cluster.live_ids() + [victim]
            collector._targets = lambda: targets
            health = await collector.probe_all()
            with pytest.raises(TelemetryError):
                await collector.scrape(victim)
            cluster.transport.mark_alive(victim)
            await cluster.shutdown()
            return victim, health

        victim, health = run(scenario())
        assert health["healthy"] is False
        down = [node for node in health["nodes"] if not node["healthy"]]
        assert [node["node"] for node in down] == \
            [TelemetryCollector.label_of(victim)]
        assert "error" in down[0]


class TestScrapeIsLossless:
    def test_awkward_values_survive_the_wire_exactly(self):
        """A registry export crosses the wire in a telemetry snapshot
        and, absorbed into a fresh registry, gives back the source's
        snapshot and exposition exactly: a negative zero, floats near
        both ends of the range, a 64-bit counter, non-ASCII labels and
        a HELP text with a newline."""
        source = MetricsRegistry()
        source.counter("big", unit="café").increment((1 << 64) - 1)
        source.gauge("tiny").set(1e-300)
        source.gauge("signed", sign="−").set(-0.0)
        source.histogram("odd").extend([-0.0, 1e-300, 2.5, 1e300])
        source.describe("big", "A counter — with a dash\nand a newline.")
        node = 0xA1 << 120
        payload = {"request_id": 1, "node": f"{node:032x}", "joined": True,
                   "known_nodes": 3, "leaf_set": 2, "mailbox_depth": 0,
                   "registry": source.export()}
        message = Message(kind="telemetry-snapshot", sender=node,
                          payload=payload)
        decoded = decode_message(encode_message(message))
        assert well_formed(decoded, {node})
        restored = MetricsRegistry()
        restored.absorb(decoded.payload["registry"])
        assert repr(restored.snapshot()) == repr(source.snapshot())
        assert restored.to_prometheus() == source.to_prometheus()
        assert repr(restored.gauge("signed", sign="−").value) == "-0.0"


class TestLoadSeries:
    @pytest.mark.parametrize("artifacts", [False, True],
                             ids=["registry", "collector"])
    def test_burn_windows_are_one_scrape_interval_wide(
            self, monkeypatch, tmp_path, artifacts):
        """``repro load`` samples one recorder every
        ``--scrape-interval``, with or without a collector, and its SLO
        verdict reads windows of exactly that width."""
        seen = []
        evaluate = slo.evaluate_load_slo

        def capture(*args, series_snapshot=None, **kwargs):
            seen.append(series_snapshot)
            return evaluate(*args, series_snapshot=series_snapshot, **kwargs)

        monkeypatch.setattr(slo, "evaluate_load_slo", capture)
        argv = ["--seed", "3", "load", "--transport", "inproc", "--nodes", "6",
                "--clients", "2", "--ops", "60", "--scrape-interval", "0.25",
                "--json"]
        if artifacts:
            argv += ["--series-out", str(tmp_path / "series.json")]
        assert main(argv) == 0
        [series] = seen
        assert series["window_seconds"] == 0.25
        assert any(name.startswith("load.ops{") for name in series["counters"])
        if artifacts:
            with open(tmp_path / "series.json", encoding="utf-8") as handle:
                assert json.load(handle) == series


class TestSloUnit:
    def test_parse_round_trips_and_rejects_garbage(self):
        assert parse_slo("p99_ms=50, degraded_pct=1") == \
            {"p99_ms": 50.0, "degraded_pct": 1.0}
        for bad in ("p99_ms", "latency=5", "p99_ms=fast", ""):
            with pytest.raises(SLOError):
                parse_slo(bad)

    def test_missing_observation_fails_its_target(self):
        verdict = evaluate_slo({"p99_ms": 50.0}, {})
        assert not verdict["ok"]
        assert verdict["targets"][0]["observed"] is None
        lines = format_verdict(verdict)
        assert lines[0] == "slo: FAIL" and "unmeasured" in lines[1]

    def test_default_specs_are_well_formed(self):
        for spec in (DEFAULT_LOAD_SLO, CHAOS_SLO):
            from repro.obs.slo import KNOWN_OBJECTIVES
            assert set(spec) <= set(KNOWN_OBJECTIVES)

    def _series(self, rows):
        return {"counters": rows, "gauges": {}, "histograms": {}}

    def test_burn_needs_both_horizons_hot(self):
        # Short horizon burns 10x but the long horizon is within
        # budget: no alert (a single bad window cannot page).
        snapshot = self._series({
            'load.ops{outcome="degraded"}': [[4, 10.0]],
            'load.ops{outcome="ok"}': [[0, 100.0], [1, 100.0], [2, 100.0],
                                       [3, 100.0], [4, 0.0]],
        })
        burn = burn_windows(snapshot, "load.ops", 'outcome="degraded"',
                            budget_fraction=0.10)
        assert burn["burn_1w"] == 10.0
        assert burn["burn_5w"] < 1.0
        assert burn["alerting"] is False

    def test_sustained_burn_alerts(self):
        snapshot = self._series({
            'load.ops{outcome="degraded"}': [[i, 30.0] for i in range(5)],
            'load.ops{outcome="ok"}': [[i, 70.0] for i in range(5)],
        })
        burn = burn_windows(snapshot, "load.ops", 'outcome="degraded"',
                            budget_fraction=0.10)
        assert burn["burn_1w"] == burn["burn_5w"] == 3.0
        assert burn["alerting"] is True

    def test_zero_budget_alerts_on_any_bad_event(self):
        snapshot = self._series({
            'load.ops{outcome="degraded"}': [[2, 1.0]],
            'load.ops{outcome="ok"}': [[0, 50.0], [1, 50.0], [2, 50.0]],
        })
        burn = burn_windows(snapshot, "load.ops", 'outcome="degraded"',
                            budget_fraction=0.0)
        assert burn["burn_1w"] is None and burn["burn_5w"] is None
        assert burn["alerting"] is True

    def test_prefix_match_does_not_swallow_longer_names(self):
        snapshot = self._series({
            "load.ops_total": [[0, 99.0]],
            "load.ops": [[0, 1.0]],
        })
        burn = burn_windows(snapshot, "load.ops", 'outcome="degraded"',
                            budget_fraction=0.5)
        assert burn["windows"] == [[0, 0.0, 1.0]]


class TestChaosTelemetryBlocks:
    def test_report_embeds_series_and_slo_verdict(self):
        from repro.faults.chaos import run_chaos

        report = run_chaos(seed=11, nodes=20, files=6, duration=80.0)
        series = report["timeseries"]
        assert series["window_seconds"] == 20.0
        lookups = {name: rows for name, rows in series["counters"].items()
                   if name.startswith("churn.lookups")}
        assert lookups, "chaos series carries no lookup outcomes"
        verdict = report["slo"]
        assert {target["name"] for target in verdict["targets"]} == \
            {"degraded_pct", "files_lost", "unpriced"}
        assert "degraded" in verdict["burn"]
        assert verdict["burn"]["degraded"]["windows"]


@pytest.mark.socket
class TestTelemetryParityOverSockets:
    """Satellite 3: the same seeded workload over real TCP and over the
    in-process transport must federate to byte-identical telemetry."""

    @pytest.fixture(scope="class")
    def both(self):
        over_sockets = run(_collected_cluster(SocketTransport()))
        in_process = run(_collected_cluster(None))
        return over_sockets, in_process

    def test_federated_snapshots_byte_identical(self, both):
        over_sockets, in_process = both
        assert over_sockets["labels"] == in_process["labels"]
        assert json.dumps(over_sockets["snapshot"], sort_keys=True) == \
            json.dumps(in_process["snapshot"], sort_keys=True)

    def test_merged_series_byte_identical(self, both):
        over_sockets, in_process = both
        assert json.dumps(over_sockets["series"], sort_keys=True) == \
            json.dumps(in_process["series"], sort_keys=True)

    def test_exposition_byte_identical(self, both):
        over_sockets, in_process = both
        assert over_sockets["prometheus"] == in_process["prometheus"]
        assert check_prometheus_text(over_sockets["prometheus"]) == []

    def test_both_healthy_with_quiet_wire_gauges(self, both):
        for collected in both:
            assert collected["health"]["healthy"] is True
            snapshot = collected["snapshot"]
            for name, value in snapshot["gauges"].items():
                if name.startswith(("wire.resynced_bytes",
                                    "wire.send_queue_depth")):
                    assert value == 0.0, name

    def test_ledgers_agree_on_messages_but_price_real_bytes(self, both):
        """Same message counts per node; the socket side prices frames
        by their actual encoded length, so bytes legitimately differ."""
        over_sockets, in_process = both
        socket_bytes = 0
        for label in in_process["labels"]:
            socket_summary = over_sockets["ledgers"][label]
            inproc_summary = in_process["ledgers"][label]
            assert socket_summary["total_messages"] == \
                inproc_summary["total_messages"]
            assert socket_summary["unpriced_messages"] == 0
            socket_bytes += socket_summary["total_bytes"]
        assert socket_bytes > 0
