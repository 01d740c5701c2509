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
import socket
import struct

import pytest

from repro.core.errors import DegradedError
from repro.core.files import RealData, SyntheticData
from repro.core.smartcard import make_uncertified_card
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.live import LiveCluster, Message
from repro.live.net import CodecError, SocketTransport, encode_message
from repro.live.net.codec import SHAPES, WIRE_VERSION
from repro.live.net.framing import encode_frame
from repro.live.storage import LiveStorageCluster
from repro.obs.trace_context import TraceContext
from tests.test_wire_framing import shape_id

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
                2, Message(kind="store-ack", sender=1,
                           payload={"request_id": 7, "ok": True})
            )
            received = await transport.receive(2, timeout=2.0)
            await transport.aclose()
            return result, received

        result, received = run(scenario())
        assert result.status == "delivered"
        assert received.kind == "store-ack"
        assert received.payload == {"request_id": 7, "ok": True}

    def test_dead_and_unknown_are_peer_dead(self):
        async def scenario():
            transport = SocketTransport()
            transport.register(1)
            transport.mark_dead(1)
            dead = await transport.send(1, Message(kind="announce", sender=2))
            unknown = await transport.send(99, Message(kind="announce", sender=2))
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
            big = Message(kind="lookup-result", sender=1, payload={
                "request_id": 1, "certificate": None,
                "data": RealData(b"x" * 262_144), "serving_node": 1,
            })
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
            result = await transport.send(2, Message(kind="announce", sender=1))
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
            await transport.send(2, Message(kind="announce", sender=1))
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


def ack(number):
    """A small message numbered *number*, from node 1."""
    return Message(kind="store-ack", sender=1,
                   payload={"request_id": number, "ok": True})


async def _two_nodes(**options):
    """A socket transport with nodes 1 and 2 registered, its link from
    1 to 2 connected by one round trip."""
    transport = SocketTransport(**options)
    transport.register(1)
    transport.register(2)
    await transport.send(2, ack(0))
    assert (await transport.receive(2, timeout=2.0)).payload["request_id"] == 0
    return transport


async def _until(condition, seconds=2.0):
    for _ in range(int(seconds / 0.01)):
        if condition():
            return True
        await asyncio.sleep(0.01)
    return condition()


class TestSocketDataPlane:
    """Frames leave on the sender's call when the link is idle and are
    delivered from ``data_received``; the queued path and a paused
    connection keep order, accounting and backpressure."""

    def test_one_wakeup_and_two_loop_iterations_per_frame(self):
        """A sequential send -> receive round trip costs the receiver's
        one wake-up: the sender writes to the socket, the connection's
        read callback puts the frame in the mailbox.  A relay task
        anywhere on the path adds a wake-up and an iteration."""

        async def scenario():
            transport = await _two_nodes()
            loop = asyncio.get_running_loop()
            counts = {"call_soon": 0, "iterations": 0}
            call_soon, run_once = loop.call_soon, loop._run_once

            def counting_call_soon(*args, **kwargs):
                counts["call_soon"] += 1
                return call_soon(*args, **kwargs)

            def counting_run_once():
                counts["iterations"] += 1
                run_once()

            loop.call_soon, loop._run_once = counting_call_soon, counting_run_once
            try:
                for number in range(1, 501):
                    await transport.send(2, ack(number))
                    received = await transport.receive(2)
                    assert received.payload["request_id"] == number
            finally:
                del loop.call_soon, loop._run_once
            await transport.aclose()
            return counts

        assert run(scenario()) == {"call_soon": 500, "iterations": 1000}

    def test_a_frame_offered_while_the_writer_holds_one_never_overtakes_it(
            self, monkeypatch):
        """Frames 1 and 2 queue before the link connects; the writer task
        writes frame 1 and then stalls in a slow drain, with frame 2
        still queued.  Frame 3, sent now, must come after frame 2."""
        gate = asyncio.Event()
        drain = asyncio.StreamWriter.drain

        async def slow_drain(writer):
            await gate.wait()
            await drain(writer)

        async def scenario():
            transport = SocketTransport()
            transport.register(1)
            transport.register(2)
            monkeypatch.setattr(asyncio.StreamWriter, "drain", slow_drain)
            await transport.send(2, ack(1))
            await transport.send(2, ack(2))
            first = await transport.receive(2, timeout=2.0)
            await transport.send(2, ack(3))
            gate.set()
            order = [first] + [await transport.receive(2, timeout=2.0)
                               for _ in range(2)]
            settled = await _until(transport.idle)
            await transport.aclose()
            return [message.payload["request_id"] for message in order], settled

        assert run(scenario()) == ([1, 2, 3], True)

    @pytest.mark.parametrize("reset", ["retired", "aborted"])
    def test_a_direct_write_onto_a_reset_connection_is_accounted(self, reset):
        """The connection from 1 to 2 is reset under an idle link: the
        listener retires (node 2 still registered, so the send is
        admitted), or the far end aborts with a TCP reset.  The next
        frame is delivered on a fresh connection, or -- with no listener
        left -- discarded; either way nothing stays in flight."""

        async def scenario():
            transport = await _two_nodes()
            endpoint = transport._pool._endpoints[2]
            if reset == "retired":
                await transport._pool.retire(2)
                await asyncio.sleep(0.05)  # the far end's FIN arrives
            else:
                (connection,) = endpoint._connections
                connection.transport.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                connection.transport.abort()
                await asyncio.sleep(0)  # the socket closes with a reset
            result = await transport.send(2, ack(1))
            received = None
            if reset == "aborted":
                received = await transport.receive(2, timeout=2.0)
            settled = await _until(transport.idle)
            outcome = {
                "status": result.status,
                "received": received and received.payload["request_id"],
                "discarded": transport.frames_discarded,
                "in_flight": transport.wire_stats()["in_flight"],
                "idle": settled,
            }
            await transport.aclose()
            return outcome

        outcome = run(scenario())
        assert outcome == {
            "status": "delivered",
            "received": None if reset == "retired" else 1,
            "discarded": 1 if reset == "retired" else 0,
            "in_flight": 0, "idle": True,
        }

    def test_a_full_mailbox_pauses_the_connection_and_loses_nothing(self):
        """Forty frames at a mailbox of two that nobody reads yet: the
        connection stops reading.  Once the node drains, every frame
        arrives once, in send order."""

        async def scenario():
            transport = await _two_nodes(mailbox_limit=2)
            for number in range(1, 41):
                assert await transport.send(2, ack(number))
            (connection,) = transport._pool._endpoints[2]._connections
            paused = await _until(lambda: not connection.transport.is_reading())
            received = [await transport.receive(2, timeout=2.0)
                        for _ in range(40)]
            settled = await _until(transport.idle)
            late = await transport.receive(2, timeout=0.05)
            outcome = {
                "paused": paused,
                "order": [message.payload["request_id"] for message in received],
                "delivered": transport.frames_delivered,
                "late": late, "idle": settled,
                "reading": connection.transport.is_reading(),
            }
            await transport.aclose()
            return outcome

        assert run(scenario()) == {
            "paused": True, "order": list(range(1, 41)), "delivered": 41,
            "late": None, "idle": True, "reading": True,
        }


async def _foreign_frame_cluster(payload):
    """Boot a 4-node socket cluster and have a TCP client that is not
    part of it write *payload* (bytes, or a function of the cluster
    giving them) as one frame to a node's listener; returns the
    cluster, that node's id and the client's writer."""
    cluster = LiveStorageCluster(seed=31, transport=SocketTransport())
    await cluster.start(4, join_concurrency=1)
    if callable(payload):
        payload = payload(cluster)
    victim = cluster.live_ids()[0]
    host, port = await cluster.transport._pool.resolve(victim)
    _, writer = await asyncio.open_connection(host, port)
    writer.write(encode_frame(payload))
    await writer.drain()
    return cluster, victim, writer


async def _routes_to_root(cluster, origin):
    key = cluster.space.random_id(random.Random(4))
    path = await cluster.route(key, origin)
    return path[-1] == cluster.global_root(key)


async def _after_foreign_frame(payload, landed):
    """A TCP client that is not part of the cluster writes *payload* as
    one frame to a node's listener.  Once ``landed(seen)`` is truthy,
    report how the transport and that node look."""
    cluster, victim, writer = await _foreign_frame_cluster(payload)
    transport = cluster.transport
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
    after["routed"] = await _routes_to_root(cluster, victim)
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
        """Shutdown is local-only: there is no ``stop`` kind, so no frame
        can name one -- a foreign peer's nearest try, the first shape id
        past the table, is refused by the decoder and the node goes on
        serving routes.  Nor may a frame this transport never enqueued
        unbalance its in-flight count: that would leave ``idle()`` false
        and ``_quiesce()`` spinning."""
        with pytest.raises(CodecError):
            encode_message(Message(kind="stop", sender=0))
        stop = bytes([WIRE_VERSION, len(SHAPES)]) + bytes(16) + b"\x00\x00"
        after = run(_after_foreign_frame(stop, lambda seen: seen["discarded"]))
        assert after == {
            "unknown": 0, "discarded": 1, "in_flight": 0, "idle": True,
            "quiesced": True, "still_running": True, "routed": True,
        }

    def test_foreign_frame_with_non_str_kind_is_discarded(self):
        """The node runtime dispatches on ``message.kind``; on the wire a
        kind is a shape id the decoder maps to the table's name, so a
        frame naming no shape -- the last byte value -- dies in the
        decoder, not in the node task."""
        frame = bytes([WIRE_VERSION, 0xFF]) + bytes(16) + b"\x00\x00"
        after = run(_after_foreign_frame(frame, lambda seen: seen["discarded"]))
        assert after == {
            "unknown": 0, "discarded": 1, "in_flight": 0, "idle": True,
            "quiesced": True, "still_running": True, "routed": True,
        }

    @pytest.mark.parametrize("version, flags", [(1, 1), (0, 2)],
                             ids=["version-01", "flags-02"])
    def test_foreign_frame_with_a_bad_traceparent_is_discarded(self, version, flags):
        """A node reads traceparent version 00 and flags 00/01 only; any
        other byte there is refused by the decoder, not carried along."""
        def frame(cluster):
            node = cluster.live_ids()[1]
            return (bytes([WIRE_VERSION, shape_id("announce")]) + node.to_bytes(16, "big")
                    + b"\x00\x01" + bytes([version])
                    + bytes.fromhex("ab" * 16 + "cd" * 8) + bytes([flags]))

        after = run(_after_foreign_frame(frame, lambda seen: seen["discarded"]))
        assert after == {
            "unknown": 0, "discarded": 1, "in_flight": 0, "idle": True,
            "quiesced": True, "still_running": True, "routed": True,
        }

    def test_foreign_frame_missing_a_field_is_counted_not_fatal(self):
        """A ``route`` frame that ends after its header carries none of
        its purpose's fields: the decoder refuses it, so no handler sees
        it (a payload without ``key`` used to end the node task with
        ``KeyError('key')``, which ``shutdown()`` re-raised)."""
        with pytest.raises(CodecError):
            encode_message(Message(kind="route", sender=1,
                                   payload={"purpose": "lookup"}))
        frame = (bytes([WIRE_VERSION, shape_id("route", "lookup")])
                 + (1).to_bytes(16, "big") + b"\x00\x00")
        after = run(_after_foreign_frame(frame, lambda seen: seen["discarded"]))
        assert after == {
            "unknown": 0, "discarded": 1, "in_flight": 0, "idle": True,
            "quiesced": True, "still_running": True, "routed": True,
        }

    @pytest.mark.parametrize("kind, payload, sender", [
        # A negative id, an id past 128 bits, a str id: no 16-byte slot
        # holds them.  What a foreign peer writes instead -- the low 16
        # bytes of -5, two bytes too many, a str body -- decodes to an
        # unregistered id, or not at all.
        ("leafset-reply", (2 ** 128 - 5).to_bytes(16, "big"), None),
        ("leafset-reply", (2 ** 140).to_bytes(18, "big"), None),
        ("leafset-reply", b"\x01x", None),
        # Sender 1 is no registered address: learning it used to raise
        # KeyError in topology.distance.
        ("announce", {}, 1),
        ("store-ack", {"request_id": 1 << 64, "ok": True}, None),
        ("announce", {}, "zero-trace-id"),
        ("telemetry-scrape", {"request_id": 1}, 1 << 131),
    ], ids=["negative-id", "id-past-128-bits", "str-id", "unregistered-sender",
            "int-past-64-bits", "zero-trace-id", "unregistered-collector"])
    def test_foreign_frame_outside_the_kind_table_is_discarded(
            self, kind, payload, sender):
        """Frames the wire can carry that break the kind table -- each of
        these used to reach a handler and raise there -- are discarded
        at the edge, and the node keeps routing.  A *sender* of None
        names a node of the cluster; *payload* bytes are the one member
        of a ``leafset-reply``, written by hand."""

        def frame(cluster):
            node = cluster.live_ids()[1]
            if isinstance(payload, bytes):
                return (bytes([WIRE_VERSION, shape_id(kind)])
                        + node.to_bytes(16, "big") + b"\x00\x00\x01" + payload)
            traceparent = None
            if sender == "zero-trace-id":
                traceparent = TraceContext("0" * 32, "cd" * 8)
            return encode_message(Message(
                kind=kind, payload=payload, traceparent=traceparent,
                sender=node if sender in (None, "zero-trace-id") else sender))

        after = run(_after_foreign_frame(frame, lambda seen: seen["discarded"]))
        assert after == {
            "unknown": 0, "discarded": 1, "in_flight": 0, "idle": True,
            "quiesced": True, "still_running": True, "routed": True,
        }

    def test_duplicated_route_takes_the_same_path_over_both_transports(self):
        """The in-process transport hands both copies of a duplicated
        message over as the *same* object.  Routing used to append to
        that shared trail, so a duplicate saw the first copy's hop
        (14 of these 30 paths repeated a node in-process, none over
        sockets).  Payloads are values now: both transports agree."""

        async def paths(transport):
            cluster = LiveCluster(seed=3, transport=transport)
            await cluster.start(12, join_concurrency=1)
            cluster.transport.faults = FaultPlan(seed=2, duplicate_rate=0.5)
            rng = random.Random(9)
            ids = cluster.live_ids()
            found = []
            for _ in range(30):
                key = cluster.space.random_id(rng)
                found.append(await cluster.route(key, rng.choice(ids)))
            cluster.transport.faults = None
            await cluster.shutdown()
            return found

        in_process = run(paths(None))
        over_sockets = run(paths(SocketTransport()))
        assert all(len(set(path)) == len(path) for path in in_process)
        assert in_process == over_sockets

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
