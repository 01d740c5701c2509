"""Seeded end-to-end conformance: sockets vs the in-process baseline.

The ROADMAP's acceptance test, as code: the asyncio TCP transport must
be *behaviorally equivalent* to ``InProcessTransport`` -- same
insert/lookup results, the same ``DegradedError`` attempt log under an
identical ``FaultPlan``, a well-formed (and structurally deterministic)
span tree per traced insert -- while the cost ledger prices every
message by its *actual* encoded frame bytes.

Everything here binds real localhost listeners, hence the ``socket``
marker (auto-skipped where binding is unavailable; CI runs
``pytest -m socket`` explicitly).
"""

import asyncio
import random

import pytest

from repro.core.errors import DegradedError
from repro.core.files import RealData, SyntheticData
from repro.core.smartcard import make_uncertified_card
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.live import Message
from repro.live.net import SocketTransport, encode_message
from repro.live.net.codec import WIRE_VERSION
from repro.live.net.framing import encode_frame
from repro.live.storage import LiveStorageCluster

pytestmark = pytest.mark.socket


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


def canonical_trace(collector, trace_id):
    """The structural fingerprint of a trace: ids, ancestry, names and
    attributes -- with the logical-tick timestamps stripped, since tick
    *order* is scheduling-dependent while the tree's shape is not."""
    return sorted(
        (record.span_id, record.parent_id, record.name, record.attributes)
        for record in collector.trace_records(trace_id)
    )


async def _storage_scenario(transport):
    """The shared conformance scenario: build, insert a batch, look
    everything up (plus one absent file); return plain comparable data.

    ``join_concurrency=1`` keeps the bootstrap message order identical
    across transports, so seeded rng streams stay aligned.
    """
    cluster = LiveStorageCluster(seed=23, transport=transport)
    await cluster.start(10, join_concurrency=1)
    pairs = make_certs(5)
    outcomes = []
    origin = cluster.live_ids()[0]
    for certificate, data in pairs:
        result = await cluster.insert(certificate, data, origin)
        outcomes.append((result["success"], sorted(result["holders"])))
    for certificate, data in pairs:
        found = await cluster.lookup(certificate.file_id, origin)
        outcomes.append((found["data"] == data,
                         found["certificate"] == certificate))
    missing = await cluster.lookup(0x1234, origin)
    outcomes.append((missing["data"] is None, missing["certificate"] is None))
    await cluster.shutdown()
    return outcomes


class TestConformance:
    def test_insert_lookup_results_identical_to_inprocess(self):
        over_sockets = run(_storage_scenario(SocketTransport()))
        in_process = run(_storage_scenario(None))
        assert all(all(flags) for flags in over_sockets)
        assert over_sockets == in_process

    def test_attempt_log_identical_under_total_loss(self):
        """Same seed, same drop-all FaultPlan, same retry policy: the
        DegradedError must carry the *same* attempt log over both
        transports -- span ids, backoff delays, reroute seeds."""

        async def degraded(transport):
            cluster = LiveStorageCluster(
                seed=5, transport=transport,
                retry=RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.02),
            )
            await cluster.start(8, join_concurrency=1)
            cluster.transport.faults = FaultPlan(seed=5, drop_rate=1.0)
            [(certificate, data)] = make_certs(1)
            origin = cluster.live_ids()[0]
            try:
                await cluster.insert(certificate, data, origin)
                raise AssertionError("drop-all insert cannot succeed")
            except DegradedError as error:
                history, trace_id = error.history, error.trace_id
            cluster.transport.faults = None
            await cluster.shutdown()
            return history, trace_id

        socket_history, socket_trace = run(degraded(SocketTransport()))
        baseline_history, baseline_trace = run(degraded(None))
        assert len(socket_history) == 3
        assert socket_history == baseline_history
        assert socket_trace == baseline_trace


async def _faulty_insert(transport):
    """One seeded insert under an 8% drop plan; returns the collector
    and the single trace id (the acceptance-criteria scenario)."""
    cluster = LiveStorageCluster(seed=5, transport=transport)
    await cluster.start(12, join_concurrency=1)
    cluster.transport.faults = FaultPlan(seed=5, drop_rate=0.08)
    [(certificate, data)] = make_certs(1)
    result = await cluster.insert(certificate, data, cluster.live_ids()[0])
    await cluster.shutdown()
    assert result["success"]
    return cluster


class TestTracesOverSockets:
    def test_single_well_formed_tree_per_insert(self):
        cluster = run(_faulty_insert(SocketTransport()))
        traces = cluster.obs.traces
        assert len(traces.trace_ids()) == 1
        (trace_id,) = traces.trace_ids()
        tree = traces.assemble(trace_id)  # raises if malformed
        assert tree.name == "live.past-insert"
        assert tree.attributes["outcome"] == "ok"
        names = {span.name for span in tree.walk()}
        assert {"attempt", "hop", "insert-root"} <= names

    def test_structurally_deterministic_across_runs_and_transports(self):
        first = run(_faulty_insert(SocketTransport()))
        second = run(_faulty_insert(SocketTransport()))
        baseline = run(_faulty_insert(None))

        def fingerprint(cluster):
            (trace_id,) = cluster.obs.traces.trace_ids()
            return canonical_trace(cluster.obs.traces, trace_id)

        assert fingerprint(first) == fingerprint(second)
        assert fingerprint(first) == fingerprint(baseline)


class TestLedgerRealBytes:
    def test_charges_equal_actual_frame_bytes(self):
        """Over sockets the ledger's per-send size is len(frame): with
        no faults and no deaths every charged frame reaches the wire,
        so the ledger delta across an insert equals the transport's
        frame-byte counter exactly -- two independent tallies of the
        same bytes."""

        async def scenario():
            transport = SocketTransport()
            cluster = LiveStorageCluster(seed=23, transport=transport)
            await cluster.start(10, join_concurrency=1)
            ledger = cluster.obs.ledger
            [(certificate, _)] = make_certs(1)
            data = RealData(b"real payload bytes " * 64)
            certificate = make_uncertified_card(
                random.Random(2), usage_quota=1 << 40,
                backend="insecure_fast",
            ).issue_file_certificate("real", data, 3, salt=0,
                                     insertion_date=0)
            bytes_before = ledger.total_bytes()
            wire_before = transport.bytes_sent
            result = await cluster.insert(
                certificate, data, cluster.live_ids()[0]
            )
            charged = ledger.total_bytes() - bytes_before
            wired = transport.bytes_sent - wire_before
            await cluster.shutdown()
            return result["success"], charged, wired, data.size

        success, charged, wired, payload_size = run(scenario())
        assert success
        assert charged == wired > 0
        # The store fan-out ships the content to k=3 replicas: real-byte
        # pricing must reflect at least those three full payload copies.
        assert charged > 3 * payload_size


class TestTypedSendResults:
    """The satellite bug fix, exercised over the real wire: dead peer,
    unknown peer, and backpressure timeout are distinguishable."""

    def test_roundtrip_delivers(self):
        async def scenario():
            transport = SocketTransport()
            transport.register(1)
            transport.register(2)
            result = await transport.send(
                2, Message(kind="ping", sender=1, payload={"n": 7})
            )
            received = await transport.receive(2, timeout=2.0)
            await transport.aclose()
            return result, received

        result, received = run(scenario())
        assert result.status == "delivered"
        assert received.kind == "ping"
        assert received.payload == {"n": 7}

    def test_dead_and_unknown_are_peer_dead(self):
        async def scenario():
            transport = SocketTransport()
            transport.register(1)
            transport.mark_dead(1)
            dead = await transport.send(1, Message(kind="ping", sender=2))
            unknown = await transport.send(99, Message(kind="ping", sender=2))
            await transport.aclose()
            return dead, unknown

        dead, unknown = run(scenario())
        assert not dead and dead.peer_dead and not dead.timed_out
        assert dead.status == "dead-peer"
        assert not unknown and unknown.peer_dead
        assert unknown.status == "unknown-peer"

    def test_backpressure_times_out_without_declaring_death(self):
        """A receiver that never drains: mailbox fills, TCP buffers
        fill, the bounded send queue fills -- send() must report
        SEND_TIMEOUT (liveness unknown), never peer_dead."""

        async def scenario():
            transport = SocketTransport(
                send_queue_size=1, mailbox_limit=1, send_timeout=0.1
            )
            transport.register(1)
            transport.register(2)
            big = Message(kind="blob", sender=1,
                          payload={"data": RealData(b"x" * 262_144)})
            for attempt in range(64):
                result = await transport.send(2, big)
                if result.timed_out:
                    await transport.aclose()
                    return result, attempt
            await transport.aclose()
            return result, -1

        result, attempt = run(scenario())
        assert attempt >= 0, "send queue never filled"
        assert result.status == "timeout"
        assert result.timed_out and not result.peer_dead and not result

    def test_injected_drop_looks_accepted(self):
        async def scenario():
            transport = SocketTransport(faults=FaultPlan(seed=1, drop_rate=1.0))
            transport.register(1)
            transport.register(2)
            result = await transport.send(2, Message(kind="ping", sender=1))
            received = await transport.receive(2, timeout=0.1)
            await transport.aclose()
            return result, received

        result, received = run(scenario())
        assert result and result.status == "injected-drop"
        assert received is None, "a dropped frame must never arrive"

    def test_injected_duplicate_delivers_twice_and_charges_twice(self):
        async def scenario():
            from repro.obs.ledger import CostLedger

            transport = SocketTransport(
                faults=FaultPlan(seed=1, duplicate_rate=1.0)
            )
            transport.ledger = CostLedger()
            transport.register(1)
            transport.register(2)
            await transport.send(2, Message(kind="ping", sender=1))
            first = await transport.receive(2, timeout=2.0)
            second = await transport.receive(2, timeout=2.0)
            charged = transport.ledger.total_bytes()
            wired = transport.bytes_sent
            await transport.aclose()
            return first, second, charged, wired

        first, second, charged, wired = run(scenario())
        assert first is not None and second is not None
        assert first.message_id == second.message_id
        assert charged == wired > 0


async def _after_foreign_frame(payload, landed):
    """A TCP client that is not part of the cluster writes *payload* as
    one frame to a node's listener.  Once ``landed(seen)`` is truthy,
    report how the transport and that node look."""
    transport = SocketTransport()
    cluster = LiveStorageCluster(seed=31, transport=transport)
    await cluster.start(4, join_concurrency=1)
    victim = cluster.live_ids()[0]
    host, port = await transport._pool.resolve(victim)
    _, writer = await asyncio.open_connection(host, port)
    writer.write(encode_frame(payload))
    await writer.drain()
    unknown = cluster.obs.metrics.counter("live.messages.unknown")

    def seen():
        return {"unknown": unknown.value,
                "discarded": transport.frames_discarded}

    for _ in range(200):
        if landed(seen()):
            break
        await asyncio.sleep(0.01)
    writer.close()
    after = seen()
    after["in_flight"] = transport.wire_stats()["in_flight"]
    after["idle"] = transport.idle()
    try:
        await asyncio.wait_for(cluster._quiesce(), 2.0)
        after["quiesced"] = True
    except asyncio.TimeoutError:
        after["quiesced"] = False
    after["still_running"] = not cluster.nodes[victim]._task.done()
    key = cluster.space.random_id(random.Random(4))
    path = await cluster.route(key, victim)
    after["routed"] = path[-1] == cluster.global_root(key)
    await cluster.shutdown()
    return after


class TestClusterLifecycleOverSockets:
    def test_kill_and_route_around(self):
        """Killing nodes closes their listeners; routing still reaches
        the correct live roots (failure discovery through the wire)."""

        async def scenario():
            cluster = LiveStorageCluster(seed=31, transport=SocketTransport())
            await cluster.start(16, join_concurrency=4)
            rng = random.Random(2)
            for victim in rng.sample(cluster.live_ids(), 2):
                cluster.kill(victim)
            mistakes = 0
            for _ in range(20):
                key = cluster.space.random_id(rng)
                origin = rng.choice(cluster.live_ids())
                path = await cluster.route(key, origin)
                if path[-1] != cluster.global_root(key):
                    mistakes += 1
            await cluster.shutdown()
            return mistakes

        assert run(scenario()) == 0

    def test_foreign_stop_frame_does_not_stop_a_node(self):
        """Shutdown is local-only: a well-formed ``stop`` message written
        by a foreign TCP peer is just an unknown kind -- counted, not
        obeyed -- and the node goes on serving routes.  Nor may a frame
        this transport never enqueued unbalance its in-flight count:
        that would leave ``idle()`` false and ``_quiesce()`` spinning."""
        stop = encode_message(Message(kind="stop", sender=0))
        after = run(_after_foreign_frame(stop, lambda seen: seen["unknown"]))
        assert after == {
            "unknown": 1, "discarded": 0, "in_flight": 0, "idle": True,
            "quiesced": True, "still_running": True, "routed": True,
        }

    def test_foreign_frame_with_non_str_kind_is_discarded(self):
        """The node runtime dispatches on ``message.kind`` as a string; a
        frame whose kind is an int must die in the decoder (typed
        header), not in the node task."""
        int64, none, empty_dict = b"\x03", b"\x00", b"\x09" + bytes(4)
        frame = (
            bytes([WIRE_VERSION])
            + int64 + (7).to_bytes(8, "big")    # kind: an int, not a str
            + int64 + bytes(8)                  # sender
            + int64 + bytes(8)                  # message_id
            + none                              # traceparent
            + empty_dict                        # payload
        )
        after = run(_after_foreign_frame(frame, lambda seen: seen["discarded"]))
        assert after == {
            "unknown": 0, "discarded": 1, "in_flight": 0, "idle": True,
            "quiesced": True, "still_running": True, "routed": True,
        }

    def test_concurrent_client_load(self):
        """Many interleaved inserts+lookups over real sockets resolve
        correctly -- frames from different operations share links."""

        async def scenario():
            cluster = LiveStorageCluster(seed=37, transport=SocketTransport())
            await cluster.start(12, join_concurrency=4)
            rng = random.Random(3)
            pairs = make_certs(8)
            inserts = await asyncio.gather(*(
                cluster.insert(certificate, data,
                               rng.choice(cluster.live_ids()))
                for certificate, data in pairs
            ))
            lookups = await asyncio.gather(*(
                cluster.lookup(certificate.file_id,
                               rng.choice(cluster.live_ids()))
                for certificate, _ in pairs
            ))
            await cluster.shutdown()
            return (
                all(result["success"] for result in inserts),
                all(found["data"] == data
                    for found, (_, data) in zip(lookups, pairs)),
            )

        inserted, found = run(scenario())
        assert inserted and found
