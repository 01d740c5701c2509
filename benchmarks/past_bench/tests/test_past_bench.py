"""Self-tests of the benchmark, at tiny sizes (a few seconds in all).

Run with ``PYTHONPATH=src python -m pytest benchmarks/past_bench/tests``.
They check the benchmark, not the system: seeded inputs, declared names,
exact counts that must repeat, span-tree shape, wrapper removal, the
correctness gate and ``compare``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from benchmarks.past_bench import REPO_ROOT, cli, report, spec
from benchmarks.past_bench.inputs import live_inputs, sim_inputs
from benchmarks.past_bench.tracing import (
    PARENT,
    REQUEST,
    Tracer,
    check_well_formed,
    install_live,
    install_sim,
)

DECLARED = spec.load_spec()
SECONDS = 0.05


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    """Shrink every fixed size; keep trace files out of the tree."""
    monkeypatch.setattr(spec, "SETUP_REPS", 1)
    monkeypatch.setattr(spec, "WARMUP_STORES", 6)
    monkeypatch.setattr(spec, "WARMUP_OPS", 12)
    monkeypatch.setattr(spec, "LIVE_NODES", 10)
    monkeypatch.setattr(spec, "SIM_NODES", 192)
    monkeypatch.setattr(spec, "SIM_ROUTE_CHECKS", 40)
    monkeypatch.setattr(cli, "TRACE_DIR", tmp_path)
    from benchmarks.past_bench import live, sim

    monkeypatch.setattr(sim, "STATE_PROBE_NODES", 64)
    monkeypatch.setattr(sim, "ENGINE_EVENTS", 2000)
    real_micro = live.pool_loopback_us

    async def small_micro(frame_bytes, frames):
        return await real_micro(frame_bytes, 20)

    monkeypatch.setattr(live, "pool_loopback_us", small_micro)


def run(capsys, workload: str, trace: bool, seed: int = 5):
    """One in-process run; returns (exit code, parsed result line)."""
    code = cli.run_workload(workload, seed, SECONDS, trace)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def values(result: dict) -> dict:
    return {name: cell["value"] for name, cell in result["metrics"].items()}


def read_spans(path) -> list:
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            spans.append([row["name"], row["start"], row["end"], row["parent"],
                          row["request"], row["value"]])
    return spans


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    workload = spec.LIVE_WORKLOADS["live_socket_mix"]
    sizes = spec.SimSizes.for_seconds(SECONDS)
    assert (live_inputs(3, workload, 40).fingerprint()
            == live_inputs(3, workload, 40).fingerprint())
    assert (live_inputs(3, workload, 40).fingerprint()
            != live_inputs(4, workload, 40).fingerprint())
    assert sim_inputs(3, sizes).fingerprint() == sim_inputs(3, sizes).fingerprint()
    assert sim_inputs(3, sizes).fingerprint() != sim_inputs(4, sizes).fingerprint()


def test_live_schedule_honours_the_mix_and_only_fetches_stored_files():
    workload = spec.LIVE_WORKLOADS["live_socket_mix"]
    inputs = live_inputs(9, workload, 80)
    ops = [op for client in inputs.timed for op in client]
    assert sum(op.kind == "store" for op in ops) == 20
    for client in inputs.timed:
        known = {op.file for op in inputs.warmup_stores}
        known |= {op.file for ops in inputs.warmup for op in ops if op.kind == "store"}
        for op in client:
            if op.kind == "store":
                known.add(op.file)
            else:
                assert op.file in known


# ---------------------------------------------------------------------- #
# declared names, exact counts
# ---------------------------------------------------------------------- #


def test_workloads_are_the_declared_ones():
    assert (sorted(spec.workload_names(DECLARED))
            == sorted([*spec.LIVE_WORKLOADS, spec.SIM_WORKLOAD]))
    assert set(spec.NOT_APPLICABLE) == set(spec.workload_names(DECLARED))


@pytest.mark.parametrize("workload", spec.workload_names(DECLARED))
def test_printed_metrics_are_the_declared_ones_and_exact_counts_repeat(
        capsys, workload):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        code, first = run(capsys, workload, trace)
        assert code == 0 and first["correct"] and first["failed"] == 0
        assert first["attempted"] >= 1
        assert list(first["metrics"]) == list(spec.metric_table(DECLARED, section))
        for name, cell in first["metrics"].items():
            assert cell["unit"] == spec.metric_table(DECLARED, section)[name]["unit"]
        _, second = run(capsys, workload, trace)
        exact = (("wire_msgs_per_op", "wire_bytes_per_user_byte") if not trace else
                 ("cluster.hops_mean", "pastry.network.hops_mean",
                  "core.cache.hit_ratio", "storage.fanout_msgs_per_store",
                  "pastry.join.msgs_per_join", "core.node.diversion_ratio"))
        for name in exact:
            assert values(first)[name] == values(second)[name], name
        if not trace:
            assert all(value > 0 for value in values(first).values())


def test_layers_a_workload_bypasses_report_zero_calls(capsys):
    _, inproc = run(capsys, "live_inproc_mix", trace=True)
    _, sim = run(capsys, spec.SIM_WORKLOAD, trace=True)
    _, socket = run(capsys, "live_socket_mix", trace=True)
    for name in spec.metric_table(DECLARED, "per_layer"):
        if name.startswith(("codec.", "framing.", "pool.", "socket_transport.")):
            assert values(inproc)[name] == 0 and values(sim)[name] == 0, name
    for name in ("codec.encode_us_per_msg", "framing.frames_per_feed",
                 "pool.loopback_us_per_frame_256", "socket_transport.send_us_per_msg",
                 "trace.overhead_pct", "loop.unattributed_pct"):
        assert values(socket)[name] != 0, name
    assert values(sim)["cluster.handler_us_per_op"] == 0
    assert values(inproc)["inproc_transport.send_us_per_msg"] > 0


# ---------------------------------------------------------------------- #
# tracing
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("workload", ["live_socket_mix", "live_inproc_mix",
                                      spec.SIM_WORKLOAD])
def test_span_trees_are_well_formed(capsys, tmp_path, workload):
    run(capsys, workload, trace=True)
    spans = read_spans(tmp_path / f"trace-{workload}.jsonl")
    assert spans
    assert check_well_formed(spans) == []
    requests = {span[REQUEST] for span in spans if span[REQUEST] is not None}
    assert requests
    for request in requests:  # one root per request: the span it is named after
        assert spans[request][PARENT] is None
        assert spans[request][REQUEST] == request
    adopted = [span for span in spans
               if span[0].startswith(("cluster.on_", "storage.on_"))]
    if workload != spec.SIM_WORKLOAD:
        assert adopted and all(span[REQUEST] is not None for span in adopted)


def test_wrappers_are_fully_removed():
    from repro.core.client import PastClient
    from repro.crypto import signatures
    from repro.live.net import codec, framing
    from repro.live.net import transport as socket_transport
    from repro.live.storage import LiveStorageCluster, LiveStorageNode
    from repro.obs.metrics import Counter
    from repro.pastry import join
    from repro.pastry.routing import DeterministicRouting

    def live_points():
        return [socket_transport.encode_message, socket_transport.decode_message,
                socket_transport.encode_frame, codec.encode_message,
                framing.FrameDecoder.feed, socket_transport.SocketTransport.send,
                LiveStorageCluster.insert, LiveStorageNode._on_store_request]

    def shared_points():
        return [DeterministicRouting.next_hop, Counter.increment,
                signatures.verify_fields]

    def sim_points():
        return [PastClient.lookup, join.join_network]

    for install, points in ((install_live, live_points), (install_sim, sim_points)):
        before = points() + shared_points()
        tracer = Tracer()
        install(tracer)
        patched = points() + shared_points()
        assert all(now is not then for now, then in zip(patched, before))
        tracer.uninstall()
        restored = points() + shared_points()
        assert all(now is then for now, then in zip(restored, before))


def test_a_traced_run_leaves_no_wrapper_behind(capsys):
    from repro.live.net import transport as socket_transport
    from repro.live.storage import LiveStorageCluster

    before = (socket_transport.encode_message, LiveStorageCluster.insert)
    run(capsys, "live_socket_mix", trace=True)
    assert (socket_transport.encode_message, LiveStorageCluster.insert) == before


# ---------------------------------------------------------------------- #
# the correctness gate
# ---------------------------------------------------------------------- #


def test_one_corrupted_payload_fails_the_run(capsys, monkeypatch):
    from repro.core.files import RealData
    from repro.live.storage import LiveStorageCluster

    real_lookup = LiveStorageCluster.lookup
    calls = [0]

    async def lookup(self, file_id, origin):
        result = await real_lookup(self, file_id, origin)
        calls[0] += 1
        if calls[0] == 3:
            flipped = bytearray(result["data"].to_bytes())
            flipped[0] ^= 0xFF
            result = dict(result, data=RealData(bytes(flipped)))
        return result

    monkeypatch.setattr(LiveStorageCluster, "lookup", lookup)
    code, result = run(capsys, "live_inproc_mix", trace=False)
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_outside_the_repo_it_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(REPO_ROOT / "benchmarks" / "past_bench",
                    tmp_path / "benchmarks" / "past_bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    environment = {key: value for key, value in os.environ.items()
                   if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "live_socket_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=environment, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


# ---------------------------------------------------------------------- #
# compare
# ---------------------------------------------------------------------- #


def _suite(**medians) -> dict:
    cells = {}
    for name, (median, spread) in medians.items():
        cells[name] = {"median": median, "q1": median * (1 - spread / 2),
                       "q3": median * (1 + spread / 2), "n": 5, "values": []}
    return {"seed": 1, "seconds": 10, "workloads": {"live_socket_mix": {
        "end_to_end": cells, "per_layer": {}, "attempted": 10, "failed": 0,
        "failed_ops_pct": 0.0, "correct": True}}}


def test_compare_verdicts(tmp_path, capsys):
    bounds = {name: cell["bound"]
              for name, cell in spec.metric_table(DECLARED, "end_to_end").items()}
    rate, p50, p99 = bounds["ops_per_s"], bounds["store_p50_ms"], bounds["retrieve_p99_ms"]
    base = _suite(ops_per_s=(1000.0, 0.02), store_p50_ms=(2.0, 0.02),
                  retrieve_p99_ms=(3.0, p99 + 0.05))
    change = _suite(ops_per_s=(1000.0 * (1 - rate - 0.05), 0.02),
                    store_p50_ms=(2.0 * (1 + p50 / 2), 0.02),
                    retrieve_p99_ms=(3.1, p99 + 0.05))
    verdicts = {row["metric"]: row["verdict"] for row in report.compare(base, change)}
    assert verdicts == {"ops_per_s": "regressed",  # worse by bound + 5%
                        "store_p50_ms": "ok",  # worse by half the bound, spreads 2%
                        "retrieve_p99_ms": "unresolved"}  # own spread > bound
    (tmp_path / "a.json").write_text(json.dumps(base))
    (tmp_path / "b.json").write_text(json.dumps(change))
    assert cli.main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    assert "regressed" in capsys.readouterr().out
    assert cli.main(["compare", str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
    improved = _suite(ops_per_s=(1200.0, 0.02))
    assert [row["verdict"] for row in report.compare(base, improved)] == ["ok"]
    failing = _suite(ops_per_s=(1000.0, 0.02))
    failing["workloads"]["live_socket_mix"]["failed"] = 2
    assert "regressed" in [row["verdict"] for row in report.compare(base, failing)]
