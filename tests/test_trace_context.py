"""Units for the trace-context layer and the claim observatory."""

import gc
import json
import random

import pytest

from repro.live.net import CodecError, decode_message, encode_message
from repro.live.transport import Message, well_formed
from repro.obs import trace_context
from repro.obs.claims import (
    ClaimVerdict,
    evaluate_claims,
    render_markdown,
    to_json_dict,
)
from repro.obs.trace_context import (
    SpanRecord,
    TraceCollector,
    TraceContext,
    derive_span_id,
    load_trace_jsonl,
    new_trace_id,
)


def announce(ctx):
    return Message(kind="announce", sender=1, traceparent=ctx)


#: A traced ``announce`` (no payload fields) up to its 26 context bytes.
ANNOUNCE_HEAD = encode_message(announce(TraceContext("1" * 32, "1" * 16)))[:-26]
IDS = bytes.fromhex("ab" * 16 + "cd" * 8)


class TestTraceContext:
    def test_root_is_deterministic_per_stream(self):
        a = TraceContext.root(random.Random(9))
        b = TraceContext.root(random.Random(9))
        assert a == b
        assert a.parent_id is None
        assert len(a.trace_id) == 32 and len(a.span_id) == 16

    def test_traceparent_round_trip(self):
        ctx = TraceContext.root(random.Random(1)).child("hop", 0)
        parsed = decode_message(encode_message(announce(ctx))).traceparent
        assert parsed.trace_id == ctx.trace_id
        assert parsed.span_id == ctx.span_id
        assert parsed.sampled
        # The wire carries position, not ancestry.
        assert parsed.parent_id is None

    def test_unsampled_flag_round_trips(self):
        ctx = TraceContext.root(random.Random(2), sampled=False)
        wire = encode_message(announce(ctx))
        assert wire.endswith(bytes.fromhex(ctx.trace_id + ctx.span_id) + b"\x00")
        assert not decode_message(wire).traceparent.sampled

    @pytest.mark.parametrize("malformed, refused_by", [
        (b"", "decoder"),                                   # no context bytes
        (b"\x00" + IDS[:10] + b"\x01", "decoder"),           # wrong widths
        (TraceContext("g" * 32, "1" * 16), "encoder"),       # non-hex
        (b"\x00" + bytes(16) + b"\x11" * 8 + b"\x01", "edge"),  # zero trace id
        (b"\x00" + b"\x11" * 16 + bytes(8) + b"\x01", "edge"),  # zero span id
        (b"\x00" + IDS + b"\x01extra", "decoder"),           # trailing bytes
        (b"\xff" + IDS + b"\x01", "decoder"),                # version ff
        (b"\x01" + IDS + b"\x01", "decoder"),                # version 01
        (b"\x00" + IDS + b"\x02", "decoder"),                # flags 02
    ], ids=[
        "",
        "00-abc-def-01",
        "00-" + "g" * 32 + "-" + "1" * 16 + "-01",
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",
        "00-" + "1" * 32 + "-" + "0" * 16 + "-01",
        "00-" + "1" * 32 + "-" + "1" * 16 + "-01-extra",
        "ZZ-" + "1" * 32 + "-" + "1" * 16 + "-01",
        "version-01",
        "flags-02",
    ])
    def test_malformed_traceparent_rejected(self, malformed, refused_by):
        """Each malformation the W3C text header could carry (the ids
        name it as text), as the binary context now carries it: a
        context the encoder cannot write, bytes the decoder refuses, or
        a zero id that decodes for the edge to refuse."""
        if refused_by == "encoder":
            with pytest.raises(CodecError, match="traceparent"):
                encode_message(announce(malformed))
        elif refused_by == "decoder":
            with pytest.raises(CodecError):
                decode_message(ANNOUNCE_HEAD + malformed)
        else:
            assert not well_formed(decode_message(ANNOUNCE_HEAD + malformed), {1})

    def test_child_ids_deterministic_and_distinct(self):
        root = TraceContext.root(random.Random(3))
        assert root.child("hop", 0) == root.child("hop", 0)
        assert root.child("hop", 0).span_id != root.child("hop", 1).span_id
        child = root.child("hop", 0)
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id

    def test_ids_are_derived_on_read_and_once(self, monkeypatch):
        derived = []

        def counting(*parts):
            derived.append(parts)
            return derive_span_id(*parts)

        monkeypatch.setattr(trace_context, "derive_span_id", counting)
        collector = TraceCollector()
        root = TraceContext.root(random.Random(4))
        hop = root.child("attempt", 0).child(1, 0, "hop")
        collector.record(hop, "hop")
        collector.record(root, "op")
        assert derived == []
        exported = collector.to_jsonl()
        assert len(derived) == 3  # hop, its unrecorded parent, the root
        assert collector.to_jsonl() == exported and len(derived) == 3
        assert hop.span_id == derive_span_id(
            root.trace_id, hop.parent_id, 1, 0, "hop")

    def test_derive_span_id_shape(self):
        span_id = derive_span_id("a", 1, None)
        assert len(span_id) == 16
        assert span_id == derive_span_id("a", 1, None)
        assert len(new_trace_id(random.Random(0))) == 32


class TestTraceCollector:
    def _tree(self):
        collector = TraceCollector()
        root = TraceContext.root(random.Random(7))
        collector.record(root, "op", start=collector.tick(),
                         end=10.0, outcome="ok")
        second = root.child("b")
        first = root.child("a")
        collector.record(second, "late", start=5.0, end=7.0)
        collector.record(first, "early", start=2.0, end=3.0)
        collector.record(first.child("leaf"), "leaf")
        return collector, root

    def test_assemble_sorts_children_and_stamps_ids(self):
        collector, root = self._tree()
        tree = collector.assemble(root.trace_id)
        assert tree.name == "op"
        assert tree.attributes["span_id"] == root.span_id
        assert tree.attributes["outcome"] == "ok"
        assert [child.name for child in tree.children] == ["early", "late"]
        assert [span.name for span in tree.walk()] == [
            "op", "early", "leaf", "late",
        ]
        assert tree.children[0].start == 2.0
        assert tree.children[0].duration == 1.0

    def test_assemble_unknown_trace(self):
        collector, _ = self._tree()
        with pytest.raises(KeyError):
            collector.assemble("f" * 32)

    def test_assemble_rejects_duplicate_span_ids(self):
        collector = TraceCollector()
        root = TraceContext.root(random.Random(8))
        collector.record(root, "op")
        collector.record(root, "op-again")
        with pytest.raises(ValueError, match="duplicate span id"):
            collector.assemble(root.trace_id)

    def test_assemble_rejects_unknown_parent(self):
        collector = TraceCollector()
        root = TraceContext.root(random.Random(8))
        collector.record(root, "op")
        collector.record(root.child("x").child("y"), "orphan")
        with pytest.raises(ValueError, match="unknown parent"):
            collector.assemble(root.trace_id)

    def test_assemble_requires_exactly_one_root(self):
        collector = TraceCollector()
        root = TraceContext.root(random.Random(8))
        collector.record(root.child("only"), "child-only")
        with pytest.raises(ValueError, match="one root"):
            collector.assemble(root.trace_id)

    def test_top_spans_orders_by_duration_then_ids(self):
        collector, root = self._tree()
        top = collector.top_spans(2)
        assert [record.name for record in top] == ["op", "late"]
        assert len(collector.top_spans(100)) == len(collector)
        with pytest.raises(ValueError):
            collector.top_spans(0)

    def test_jsonl_round_trip_is_byte_identical(self, tmp_path):
        collector, root = self._tree()
        path = tmp_path / "traces.jsonl"
        assert collector.write_jsonl(path) == 4
        loaded = load_trace_jsonl(path)
        assert loaded.to_jsonl() == collector.to_jsonl()
        assert loaded.trace_ids() == [root.trace_id]
        assert loaded.assemble(root.trace_id).to_json() == \
            collector.assemble(root.trace_id).to_json()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            load_trace_jsonl(path)
        path.write_text('{"trace_id": "t"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="not a span record"):
            load_trace_jsonl(path)

    def test_span_record_json_is_compact_and_sorted(self):
        record = SpanRecord("t" * 32, "s" * 16, None, "op", 1.0, 2.0,
                            (("b", 1), ("a", 2)))
        payload = json.loads(record.to_json())
        assert payload["attributes"] == {"a": 2, "b": 1}
        assert record.duration == 1.0
        assert " " not in record.to_json()


class TestTraceRetention:
    """Two generations of TRACE_RETENTION whole traces (monkeypatched
    to 4 here): the older generation is dropped in one step when the
    newer one fills."""

    @pytest.fixture(autouse=True)
    def small_retention(self, monkeypatch):
        monkeypatch.setattr(trace_context, "TRACE_RETENTION", 4)

    def _roots(self, count):
        rng = random.Random(11)
        return [TraceContext.root(rng) for _ in range(count)]

    def test_rotation_drops_whole_older_generation(self):
        collector = TraceCollector()
        roots = self._roots(11)
        for index, root in enumerate(roots):
            collector.record(root, "op")
            collector.record(root.child("leaf"), "leaf")
            if index == 5:
                # A late span for a trace the older generation holds
                # lands there: it neither opens a trace nor rotates.
                collector.record(roots[0].child("late"), "late")
        # Traces 1-4 were dropped when trace 9 arrived (5-8 full, 9-11
        # current), trace 1's late span with them.
        assert collector.trace_ids() == [root.trace_id for root in roots[4:]]
        assert collector.evicted_traces == 4
        assert collector.evicted_spans == 4 * 2 + 1
        assert len(collector) == 7 * 2
        assert len(collector.records()) == len(collector)
        assert collector.trace_records(roots[0].trace_id) == []
        for root in roots[4:]:
            collector.assemble(root.trace_id)  # whole, hence well-formed

    def test_child_seq_is_per_node_and_dies_with_its_trace(self):
        collector = TraceCollector()
        first, *others = self._roots(9)
        assert [collector.child_seq(first.trace_id, 1) for _ in range(3)] == [0, 1, 2]
        assert collector.child_seq(first.trace_id, 2) == 0
        # Counters open a trace entry, but a trace with no spans is not
        # listed until it records one.
        assert collector.trace_ids() == []
        for root in others:
            collector.record(root, "op")
        assert collector.evicted_traces == 4
        assert collector.child_seq(first.trace_id, 1) == 0

    @pytest.mark.parametrize("read_first", [False, True],
                             ids=["never-read", "read-before-eviction"])
    def test_a_late_child_of_an_evicted_trace_gets_the_eager_id(self, read_first):
        """The hop's entry, and its derivations, are dropped before its
        child and its parent are recorded: the chain is entered again
        into the trace's new entry (or, if the hop's id was read, the
        child names it), and every id is the one an eager derivation
        gives."""
        collector = TraceCollector()
        first, *others = self._roots(9)
        attempt = first.child("attempt", 0)
        hop = attempt.child(7, 0, "hop")
        collector.record(hop, "hop")
        if read_first:
            hop.span_id
        for root in others:  # 2 x TRACE_RETENTION newer traces
            collector.record(root, "op")
        assert collector.trace_records(first.trace_id) == []
        collector.record(hop.child(9, 0, "store"), "store")
        collector.record(attempt, "attempt")
        collector.record(first, "op")
        root_id = derive_span_id(first.trace_id, "root")
        attempt_id = derive_span_id(first.trace_id, root_id, "attempt", 0)
        hop_id = derive_span_id(first.trace_id, attempt_id, 7, 0, "hop")
        store_id = derive_span_id(first.trace_id, hop_id, 9, 0, "store")
        assert [(r.name, r.span_id, r.parent_id)
                for r in collector.trace_records(first.trace_id)] == [
            ("store", store_id, hop_id),
            ("attempt", attempt_id, root_id),
            ("op", root_id, None),
        ]

    def test_export_round_trips_after_eviction(self, tmp_path):
        collector = TraceCollector()
        roots = self._roots(11)
        for root in roots:
            leaf = root.child("a").child("b")
            collector.record(leaf, "leaf")
            collector.record(root, "op")
            collector.record(leaf.child("c"), "late")
        assert collector.evicted_traces == 4
        path = tmp_path / "traces.jsonl"
        assert collector.write_jsonl(path) == 7 * 3
        loaded = load_trace_jsonl(path)
        assert loaded.to_jsonl() == collector.to_jsonl()
        assert loaded.trace_ids() == collector.trace_ids()

    def test_records_and_export_keep_collection_order(self, tmp_path):
        collector = TraceCollector()
        roots = self._roots(6)
        for root in roots:
            collector.record(root.child("a"), "a")
        for root in reversed(roots):
            collector.record(root, "op")
        names = [(r.trace_id, r.name) for r in collector.records()]
        assert names == [(root.trace_id, "a") for root in roots] + [
            (root.trace_id, "op") for root in reversed(roots)
        ]
        path = tmp_path / "traces.jsonl"
        assert collector.write_jsonl(path) == 12
        loaded = load_trace_jsonl(path)
        assert loaded.to_jsonl() == collector.to_jsonl()
        assert loaded.trace_ids() == collector.trace_ids()

    def test_retained_rows_are_untracked_by_the_gc(self):
        collector = TraceCollector()
        for root in self._roots(3):
            collector.record(root, "op", outcome="ok", hops=2, delivered=True)
            collector.record(root.child("a").child(7, 0, "b"), "leaf", hops=1)
        gc.collect()
        rows = collector._rows()
        assert rows and not any(gc.is_tracked(row) for row in rows)
        for read in (False, True):  # pending, then resolved by a read
            if read:
                collector.to_jsonl()
                gc.collect()
            derivations = [derivation
                           for generation in (collector._older, collector._current)
                           for trace in generation.values()
                           for derivation in trace.derivations]
            assert len(derivations) == 9
            assert not any(gc.is_tracked(derivation) for derivation in derivations)


# ---------------------------------------------------------------------- #
# claim observatory
# ---------------------------------------------------------------------- #

def healthy_snapshot():
    return {
        "counters": {
            'lookup.replica_rank{rank="1"}': 60,
            'lookup.replica_rank{rank="2"}': 25,
            'lookup.replica_rank{rank="3"}': 15,
        },
        "gauges": {
            "census.storage_used_bytes": 5000.0,
            "census.storage_capacity_bytes": 10000.0,
            "census.inserts_attempted": 100.0,
            "census.inserts_rejected": 2.0,
        },
        "histograms": {
            'route.hops{category="lookup"}': {
                "count": 50.0, "mean": 1.4, "p95": 3.0, "max": 4.0,
            },
            'route.stretch{category="lookup"}': {
                "count": 40.0, "mean": 1.3, "p95": 2.0, "max": 2.4,
            },
            "census.state_entries": {
                "count": 30.0, "mean": 25.0, "p95": 38.0, "max": 40.0,
            },
            "census.files_per_node": {
                "count": 30.0, "mean": 2.0, "p95": 4.0, "max": 5.0,
            },
        },
    }


PARAMS = {
    "final_node_count": 30,
    "bits_per_digit": 4,
    "leaf_capacity": 16,
    "neighborhood_capacity": 16,
    "replication_factor": 3,
}


class TestClaims:
    def test_healthy_snapshot_passes_every_probe(self):
        verdicts = evaluate_claims(healthy_snapshot(), PARAMS)
        assert [v.claim for v in verdicts] == \
            ["C1", "C2", "C4", "C5", "C8", "C10"]
        assert all(v.passed for v in verdicts)
        for verdict in verdicts:
            assert verdict.observed and verdict.target

    def test_empty_snapshot_fails_with_reasons(self):
        verdicts = evaluate_claims(
            {"counters": {}, "gauges": {}, "histograms": {}}, PARAMS
        )
        assert not any(v.passed for v in verdicts)
        assert all(v.detail for v in verdicts)

    def test_each_probe_detects_its_regression(self):
        snapshot = healthy_snapshot()
        snapshot["histograms"]['route.hops{category="lookup"}']["mean"] = 9.0
        snapshot["histograms"]['route.stretch{category="lookup"}']["mean"] = 4.0
        snapshot["histograms"]["census.state_entries"]["max"] = 500.0
        snapshot["histograms"]["census.files_per_node"]["max"] = 90.0
        snapshot["counters"]['lookup.replica_rank{rank="1"}'] = 1
        snapshot["counters"]['lookup.replica_rank{rank="3"}'] = 99
        snapshot["gauges"]["census.inserts_rejected"] = 50.0
        verdicts = evaluate_claims(snapshot, PARAMS)
        assert not any(v.passed for v in verdicts)

    def test_render_markdown_is_deterministic(self):
        verdicts = evaluate_claims(healthy_snapshot(), PARAMS)
        first = render_markdown(verdicts, PARAMS)
        assert first == render_markdown(verdicts, PARAMS)
        assert "6/6 claims pass." in first
        assert "| C1 | PASS |" in first

    def test_render_lists_failures(self):
        verdict = ClaimVerdict("C9", "never checked", False,
                               "n/a", "n/a", "unimplemented")
        rendered = render_markdown([verdict])
        assert "0/1 claims pass." in rendered
        assert "- FAIL C9: never checked (unimplemented)" in rendered

    def test_to_json_dict(self):
        verdicts = evaluate_claims(healthy_snapshot(), PARAMS)
        payload = to_json_dict(verdicts, PARAMS)
        assert payload["passed"]
        assert len(payload["verdicts"]) == 6
        assert payload["params"]["final_node_count"] == 30


class TestReportCli:
    def _write_report(self, tmp_path, snapshot, violations=()):
        report = {
            "metrics": snapshot,
            "params": PARAMS,
            "violations": list(violations),
        }
        path = tmp_path / "chaos-report.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        return path

    def test_passing_report_exits_zero(self, tmp_path, capsys):
        from repro.obs.report import main

        path = self._write_report(tmp_path, healthy_snapshot())
        out = tmp_path / "claims.md"
        assert main(["--report", str(path), "--out", str(out)]) == 0
        assert "6/6 claims pass." in out.read_text(encoding="utf-8")
        assert "Invariant violations: 0" in capsys.readouterr().out

    def test_failing_claim_exits_one(self, tmp_path, capsys):
        from repro.obs.report import main

        snapshot = healthy_snapshot()
        snapshot["gauges"]["census.inserts_rejected"] = 50.0
        path = self._write_report(tmp_path, snapshot)
        assert main(["--report", str(path)]) == 1
        assert "claim regression: C8" in capsys.readouterr().err

    def test_invariant_violations_gate(self, tmp_path, capsys):
        from repro.obs.report import main

        path = self._write_report(tmp_path, healthy_snapshot())
        events = tmp_path / "events.jsonl"
        events.write_text(
            json.dumps({"event": "invariant-violated", "seq": 1}) + "\n"
            + json.dumps({"event": "node-joined", "seq": 2}) + "\n",
            encoding="utf-8",
        )
        assert main(["--report", str(path), "--events", str(events)]) == 1
        captured = capsys.readouterr()
        assert "Invariant violations: 1" in captured.out

    def test_json_output(self, tmp_path, capsys):
        from repro.obs.report import main

        path = self._write_report(tmp_path, healthy_snapshot())
        assert main(["--report", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"]
        assert payload["invariant_violations"] == 0

    def test_legacy_report_rejected(self, tmp_path, capsys):
        from repro.obs.report import main

        path = tmp_path / "old-report.json"
        path.write_text(json.dumps({"seed": 7}), encoding="utf-8")
        assert main(["--report", str(path)]) == 2
        assert "missing 'metrics'" in capsys.readouterr().err

    def test_missing_file_rejected(self, tmp_path, capsys):
        from repro.obs.report import main

        assert main(["--report", str(tmp_path / "nope.json")]) == 2
