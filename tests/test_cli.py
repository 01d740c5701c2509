"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs.events import validate_jsonl_file


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.nodes == 64
        assert args.seed == 0

    def test_seed_flag(self):
        args = build_parser().parse_args(["--seed", "9", "route"])
        assert args.seed == 9


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo", "--nodes", "20"]) == 0
        out = capsys.readouterr().out
        assert "inserted fileId" in out
        assert "reclaimed" in out

    def test_route(self, capsys):
        assert main(["route", "--nodes", "100"]) == 0
        out = capsys.readouterr().out
        assert "delivered at the root" in out
        assert "shared prefix" in out

    def test_hops(self, capsys):
        assert main(["hops", "--sizes", "64", "128", "--lookups", "100"]) == 0
        out = capsys.readouterr().out
        assert "routing hops vs N" in out
        assert "64" in out and "128" in out

    def test_fill(self, capsys):
        assert main(["fill", "--nodes", "20", "--capacity", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "final utilization" in out

    def test_churn(self, capsys):
        assert main([
            "--seed", "5", "churn", "--nodes", "30", "--files", "10",
            "--duration", "60",
        ]) == 0
        out = capsys.readouterr().out
        assert "availability" in out

    def test_demo_deterministic(self, capsys):
        main(["--seed", "7", "demo", "--nodes", "20"])
        first = capsys.readouterr().out
        main(["--seed", "7", "demo", "--nodes", "20"])
        second = capsys.readouterr().out
        assert first == second


class TestObservabilityCommands:
    def test_route_json_emits_span_tree(self, capsys):
        assert main(["--seed", "3", "route", "--nodes", "60", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["delivered"] is True
        span = document["span"]  # the trace collector's assembled tree
        assert span["name"] == "route"
        assert span["attributes"]["hops"] == document["hops"]
        hops = [child for child in span["children"] if child["name"] == "hop"]
        assert len(hops) == document["hops"] + 1
        assert all("rule" in h["attributes"] for h in hops)
        assert "next_node" not in hops[-1]["attributes"]  # terminal hop
        assert hops[-1]["attributes"]["delivered"] is True

    def test_route_json_byte_identical(self, capsys):
        main(["--seed", "11", "route", "--nodes", "80", "--json"])
        first = capsys.readouterr().out
        main(["--seed", "11", "route", "--nodes", "80", "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_route_text_includes_rules(self, capsys):
        assert main(["route", "--nodes", "100"]) == 0
        out = capsys.readouterr().out
        assert "[" in out and "]" in out  # per-hop rule annotations

    def test_metrics_snapshot_and_events(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        assert main([
            "--seed", "2", "metrics", "--nodes", "24", "--files", "8",
            "--routes", "20", "--events", str(events),
        ]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["counters"]["storage.insert"] > 0
        assert any(k.startswith("route.requests") for k in snapshot["counters"])
        assert "join.messages" in snapshot["histograms"]
        assert validate_jsonl_file(str(events)) == []
        kinds = {
            json.loads(line)["kind"] for line in events.read_text().splitlines()
        }
        assert {"node-joined", "insert-completed", "route-completed"} <= kinds

    def test_metrics_deterministic(self, capsys):
        main(["--seed", "6", "metrics", "--nodes", "24", "--files", "6",
              "--routes", "15"])
        first = capsys.readouterr().out
        main(["--seed", "6", "metrics", "--nodes", "24", "--files", "6",
              "--routes", "15"])
        second = capsys.readouterr().out
        assert first == second
