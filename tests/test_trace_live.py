"""Distributed tracing over the live cluster: determinism and shape.

The acceptance property for the tracing layer: a seeded insert under a
fault plan yields ONE well-formed span tree covering every routing hop,
replica store, retry attempt and injected wire fault -- and two runs of
the same scenario export byte-identical JSONL.
"""

import asyncio
import hashlib
import random

import pytest

from repro.core.errors import DegradedError
from repro.core.files import SyntheticData
from repro.core.ids import storage_key
from repro.core.smartcard import make_uncertified_card
from repro.faults.plan import FaultPlan
from repro.live.storage import LiveStorageCluster
from repro.obs import trace_context
from repro.obs.trace_context import TraceCollector, load_trace_jsonl
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


async def faulty_insert_scenario():
    """One insert on a 12-node cluster under 8% message drops (seed 5
    makes the first two attempts time out, so the trace contains the
    whole retry/reroute story)."""
    cluster = LiveStorageCluster(seed=5)
    await cluster.start(12, join_concurrency=4)
    # Installed after bootstrap: the drops hit the operation, not the joins.
    cluster.transport.faults = FaultPlan(seed=5, drop_rate=0.08)
    (certificate, data), = make_certs(1)
    result = await cluster.insert(certificate, data, cluster.live_ids()[0])
    await cluster.shutdown()
    return cluster, result


class TestFaultyInsertTrace:
    def test_byte_deterministic_jsonl(self):
        first, _ = run(faulty_insert_scenario())
        second, _ = run(faulty_insert_scenario())
        exported = first.obs.traces.to_jsonl()
        assert exported
        assert exported == second.obs.traces.to_jsonl()

    def test_one_tree_with_every_attempt_and_fault(self):
        cluster, result = run(faulty_insert_scenario())
        assert result["success"]
        traces = cluster.obs.traces
        assert len(traces.trace_ids()) == 1
        (trace_id,) = traces.trace_ids()
        tree = traces.assemble(trace_id)  # raises if malformed

        assert tree.name == "live.past-insert"
        assert tree.attributes["outcome"] == "ok"

        spans = list(tree.walk())
        attempts = [s for s in spans if s.name == "attempt"]
        assert len(attempts) == tree.attributes["attempts"] >= 2
        # The retry discipline shows in the tree: early attempts time
        # out, a rerouted attempt eventually delivers.
        assert attempts[0].attributes["outcome"] == "timeout"
        assert attempts[-1].attributes["outcome"] == "delivered"
        assert any(s.attributes.get("randomized") for s in attempts)

        names = {s.name for s in spans}
        # Hops, the root's replica fan-out, and the injected drops all
        # land inside the same tree.
        assert {"hop", "insert-root", "store", "wire-fault"} <= names
        drops = [s for s in spans if s.name == "wire-fault"]
        assert all(s.attributes["fault"] == "drop" for s in drops)

    def test_slow_op_log_ranks_the_root_first(self):
        cluster, _ = run(faulty_insert_scenario())
        top = cluster.obs.traces.top_spans(3)
        assert top[0].name == "live.past-insert"
        assert top[0].duration >= top[1].duration >= top[2].duration

    def test_metrics_exposition_is_strictly_valid(self):
        cluster, _ = run(faulty_insert_scenario())
        text = cluster.metrics_text()
        assert check_prometheus_text(text) == []
        assert "live_trace_spans" in text


class TestInterleavedInsertTraces:
    """Two concurrent inserts interleave on the wire but must yield two
    disjoint, individually well-formed, byte-deterministic trees."""

    async def _scenario(self):
        cluster = LiveStorageCluster(seed=17)
        await cluster.start(14, join_concurrency=5)
        pairs = make_certs(2)
        ids = cluster.live_ids()
        results = await asyncio.gather(*(
            cluster.insert(certificate, data, origin)
            for (certificate, data), origin in zip(pairs, (ids[0], ids[-1]))
        ))
        await cluster.shutdown()
        return cluster, results

    def test_disjoint_well_formed_trees(self):
        cluster, results = run(self._scenario())
        assert all(result["success"] for result in results)
        traces = cluster.obs.traces
        trace_ids = traces.trace_ids()
        assert len(trace_ids) == 2

        span_sets = []
        for trace_id in trace_ids:
            tree = traces.assemble(trace_id)  # well-formedness enforced
            assert tree.name == "live.past-insert"
            assert tree.attributes["outcome"] == "ok"
            span_sets.append(
                {record.span_id for record in traces.trace_records(trace_id)}
            )
        assert span_sets[0].isdisjoint(span_sets[1])

    def test_interleaving_is_byte_deterministic(self):
        first, _ = run(self._scenario())
        second, _ = run(self._scenario())
        assert first.obs.traces.to_jsonl() == second.obs.traces.to_jsonl()


RETENTION = 8


async def storage_ops(operations):
    """*operations* in-process storage ops at a 1:3 insert:lookup mix,
    one at a time, on a 10-node cluster."""
    cluster = LiveStorageCluster(seed=21)
    await cluster.start(10, join_concurrency=5)
    rng = random.Random(21)
    pairs = make_certs(operations // 4)
    for certificate, data in pairs:
        result = await cluster.insert(certificate, data, rng.choice(cluster.live_ids()))
        assert result["success"]
    for _ in range(operations - len(pairs)):
        certificate, _ = rng.choice(pairs)
        found = await cluster.lookup(certificate.file_id, rng.choice(cluster.live_ids()))
        assert found["data"] is not None
    await cluster.shutdown()
    return cluster


class TestBoundedRetention:
    """A long live run keeps a fixed window of whole traces: between N
    and 2N of them (TRACE_RETENTION monkeypatched to N = 8)."""

    @pytest.fixture(autouse=True)
    def small_retention(self, monkeypatch):
        monkeypatch.setattr(trace_context, "TRACE_RETENTION", RETENTION)
        recorded = []
        record = TraceCollector.record

        def counting_record(collector, *args, **kwargs):
            recorded.append(collector)
            record(collector, *args, **kwargs)

        monkeypatch.setattr(TraceCollector, "record", counting_record)
        self.recorded = recorded

    def test_window_holds_whole_well_formed_traces(self):
        cluster = run(storage_ops(100))
        traces = cluster.obs.traces
        trace_ids = traces.trace_ids()
        assert RETENTION <= len(trace_ids) <= 2 * RETENTION
        assert traces.evicted_traces + len(trace_ids) == 100
        assert traces.evicted_spans + len(traces) == len(self.recorded)
        for trace_id in trace_ids:
            tree = traces.assemble(trace_id)  # raises if malformed
            assert tree.attributes["outcome"] == "ok"
        # The per-(node, trace) span counters live in the collector.
        assert not any(hasattr(node, "_trace_seq") for node in cluster.nodes.values())

    def test_export_is_deterministic_and_round_trips(self, tmp_path):
        first = run(storage_ops(100)).obs.traces
        second = run(storage_ops(100)).obs.traces
        exported = first.to_jsonl()
        assert exported == second.to_jsonl()
        path = tmp_path / "traces.jsonl"
        assert first.write_jsonl(path) == len(first)
        loaded = load_trace_jsonl(path)
        assert loaded.to_jsonl() == exported
        assert loaded.trace_ids() == first.trace_ids()

    def test_doubling_the_ops_keeps_the_ceiling(self):
        short = run(storage_ops(100)).obs.traces
        long = run(storage_ops(200)).obs.traces
        assert long.evicted_spans > short.evicted_spans
        widest = max(
            len(traces.trace_records(trace_id))
            for traces in (short, long)
            for trace_id in traces.trace_ids()
        )
        for traces in (short, long):
            assert len(traces.trace_ids()) <= 2 * RETENTION
            assert len(traces) <= 2 * RETENTION * widest


#: 0.5 s per attempt: hundreds of times an in-process op, so only a drop
#: ever times an attempt out, and the run stays byte-deterministic.
PINNED_TIMEOUT = 2.0

#: sha256 of the scenario's trace export.  Any change to a span, a span
#: id, an attribute or the row order changes it; a change that means to
#: do so recomputes it and says why.
PINNED_TRACE_SHA256 = (
    "8e2c77163fb2a6f0be2f2b95ae8e93ad5d3e34d5ef9656ee3659d46f4fbd83e0"
)


async def pinned_scenario():
    """200 storage ops (50 inserts, then 150 lookups), one at a time,
    on 24 nodes under message drops and duplicates: retries, attempts,
    repokes and wire faults all land in the export."""
    cluster = LiveStorageCluster(seed=13)
    await cluster.start(24, join_concurrency=6)
    cluster.transport.faults = FaultPlan(seed=13, drop_rate=0.01,
                                         duplicate_rate=0.05)
    rng = random.Random(13)
    pairs = make_certs(50, seed=13)
    requests = [
        {"key": certificate.storage_key(), "purpose": "past-insert",
         "certificate": certificate, "data": data}
        for certificate, data in pairs
    ] + [
        {"key": storage_key(certificate.file_id), "purpose": "past-lookup",
         "file_id": certificate.file_id}
        for certificate, _ in (rng.choice(pairs) for _ in range(150))
    ]
    for payload in requests:
        try:
            await cluster._request(rng.choice(cluster.live_ids()), payload,
                                   PINNED_TIMEOUT)
        except DegradedError:
            pass
    await cluster.shutdown()
    return cluster


class TestPinnedTraceBytes:
    """Span ids, attributes and row order are pinned across commits, not
    just across two runs of one commit."""

    def test_export_digest_is_pinned(self):
        traces = run(pinned_scenario()).obs.traces
        exported = traces.to_jsonl()
        names = {record.name for record in traces.records()}
        assert {"attempt", "wire-fault", "hop", "store", "serve"} <= names
        assert any(r.name == "attempt" and dict(r.attributes)["attempt"] > 1
                   for r in traces.records())
        digest = hashlib.sha256(exported.encode("utf-8")).hexdigest()
        assert digest == PINNED_TRACE_SHA256


class TestDegradedAttemptHistory:
    def test_history_span_ids_are_the_exported_attempt_spans(self):
        """The attempt log keeps contexts and derives their ids only when
        the degraded error renders it: the same ids the export reads."""

        async def scenario():
            cluster = LiveStorageCluster(seed=9)
            await cluster.start(8, join_concurrency=4)
            cluster.transport.faults = FaultPlan(seed=9, drop_rate=1.0)
            ids = cluster.live_ids()
            with pytest.raises(DegradedError) as caught:
                await cluster.route(ids[3], ids[0], timeout=0.4)
            await cluster.shutdown()
            return cluster, caught.value

        cluster, error = run(scenario())
        attempts = [record for record in cluster.obs.traces.trace_records(error.trace_id)
                    if record.name == "attempt"]
        assert len(error.history) == len(attempts) == cluster.retry.attempts
        assert [record.span_id for record in error.history] == \
            [record.span_id for record in attempts]
