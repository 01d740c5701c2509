"""The live kind table and the socket edge that enforces it.

``LIVE_KINDS`` (``live/transport.py``) writes down once what every live
message may carry.  These tests hold it to the traffic the cluster
really sends -- every kind and route purpose, captured from a running
cluster -- and show that each way of breaking a real message (a field
dropped, a field of the wrong type, a bad or unregistered id, a
certificate envelope missing a field) is refused.  Over real sockets, a
Hypothesis property writes hostile frames from a foreign TCP client --
real frames cut, flipped and spliced, frames carrying values the wire
can express but the edge must refuse, and frames from the codec's whole
grammar: each is discarded at the edge or handled, and no node task
dies.  And the bytes that traffic costs beyond its files are capped.
"""

import asyncio
import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.core.certificates import FileCertificate
from repro.core.files import RealData, SyntheticData
from repro.core.smartcard import make_uncertified_card
from repro.crypto.signatures import SignedEnvelope
from repro.live import InProcessTransport, Message
from repro.live.net import SocketTransport, decode_message, encode_message
from repro.live.net.codec import WIRE_VERSION
from repro.live.net.framing import encode_frame
from repro.live.storage import LiveStorageCluster
from repro.live.transport import (
    INT,
    LIVE_KINDS,
    NODE,
    NODES,
    ROUTE_PURPOSES,
    well_formed,
)
from repro.obs.telemetry import TelemetryCollector
from tests.test_wire_framing import messages


def capture(transport):
    """Record every message *transport* is asked to send."""
    sent = []
    send = transport.send

    async def recording(destination, message):
        sent.append(message)
        return await send(destination, message)

    transport.send = recording
    return sent


async def exercise(cluster):
    """Make *cluster* send every live kind and every route purpose."""
    await cluster.start(6, join_concurrency=2)
    origin = cluster.live_ids()[0]
    card = make_uncertified_card(random.Random(3), usage_quota=1 << 40,
                                 backend="insecure_fast")
    data = RealData(b"edge " * 40)
    certificate = card.issue_file_certificate("edge", data, 3, salt=1,
                                              insertion_date=0)
    assert (await cluster.insert(certificate, data, origin))["success"]
    refused = await cluster.insert(certificate, data, origin)
    assert refused["reason"] == "duplicate"
    assert (await cluster.lookup(certificate.file_id, origin))["data"] == data
    await cluster.route(cluster.space.random_id(random.Random(1)), origin)
    collector = TelemetryCollector(cluster)
    await collector.scrape_all()
    await collector.probe_all()


def shape(message):
    """A message's row: its kind, and for a route its purpose."""
    if message.kind == "route":
        return message.kind, message.payload["purpose"]
    return message.kind, None


def samples(sent):
    """One message of each shape, as the far side decodes it."""
    first = {}
    for message in sent:
        first.setdefault(shape(message), message)
    return {key: decode_message(encode_message(message))
            for key, message in first.items()}


def schema_of(message):
    row = LIVE_KINDS[message.kind]
    return row.payload or ROUTE_PURPOSES[message.payload["purpose"]]


ALL_SHAPES = {(kind, None) for kind in LIVE_KINDS if kind != "route"} | {
    ("route", purpose) for purpose in ROUTE_PURPOSES
}


@pytest.fixture(scope="module")
def inprocess():
    """A run of :func:`exercise` in process: its messages, one per
    shape, and the addresses it registered."""
    async def scenario():
        transport = InProcessTransport()
        sent = capture(transport)
        cluster = LiveStorageCluster(seed=41, transport=transport)
        await exercise(cluster)
        await cluster.shutdown()
        return sent, set(transport._mailboxes)

    sent, registered = asyncio.run(scenario())
    return sent, samples(sent), registered


def drop_certificate_field(certificate, name):
    envelope = certificate.envelope
    fields = {key: value for key, value in envelope.fields.items() if key != name}
    return FileCertificate(SignedEnvelope(kind=envelope.kind, fields=fields,
                                          signer=envelope.signer,
                                          signature=envelope.signature))


def with_payload(message, **changes):
    payload = dict(message.payload, **changes)
    return Message(kind=message.kind, sender=message.sender, payload=payload,
                   message_id=message.message_id,
                   traceparent=message.traceparent)


class TestKindTable:
    def test_every_kind_and_purpose_is_sent_and_fits(self, inprocess):
        sent, by_shape, registered = inprocess
        assert set(by_shape) == ALL_SHAPES
        assert len(LIVE_KINDS) == 15
        for message in sent:
            wire = decode_message(encode_message(message))
            assert well_formed(wire, registered), shape(message)
            assert "traceparent" not in message.payload, shape(message)

    def test_a_dropped_field_is_refused_unless_optional(self, inprocess):
        _, by_shape, registered = inprocess
        for key, message in by_shape.items():
            optional = schema_of(message).optional
            for name in message.payload:
                payload = {k: v for k, v in message.payload.items() if k != name}
                dropped = Message(kind=message.kind, sender=message.sender,
                                  payload=payload,
                                  traceparent=message.traceparent)
                assert well_formed(dropped, registered) == (name in optional), (key, name)

    def test_a_field_of_the_wrong_type_is_refused(self, inprocess):
        _, by_shape, registered = inprocess
        for key, message in by_shape.items():
            for name in message.payload:
                wrong = with_payload(message, **{name: b"\x00"})
                assert not well_formed(wrong, registered), (key, name)

    def test_an_extra_field_is_refused(self, inprocess):
        """Extra fields included: the trace context belongs in the
        header, and a payload copy of it no longer fits."""
        _, by_shape, registered = inprocess
        header = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
        for key, message in by_shape.items():
            assert not well_formed(with_payload(message, traceparent=header),
                                   registered), key

    @pytest.mark.parametrize("bad", [-5, 1 << 128, 1 << 140, 1],
                             ids=["negative", "2**128", "2**140", "unregistered"])
    def test_a_bad_node_id_is_refused(self, inprocess, bad):
        _, by_shape, registered = inprocess
        assert bad not in registered
        for key, message in by_shape.items():
            moved = Message(kind=message.kind, sender=bad,
                            payload=message.payload)
            assert not well_formed(moved, registered), key
            for name, value in message.payload.items():
                if isinstance(value, list):
                    spoiled = with_payload(message, **{name: [bad]})
                    assert not well_formed(spoiled, registered), (key, name)

    @pytest.mark.parametrize("name, value", [
        ("data", SyntheticData(seed=-1, size=5)),
        ("data", SyntheticData(seed=1 << 128, size=5)),
        ("data", SyntheticData(seed=1, size=1 << 64)),
        ("key", 1 << 128), ("file_id", 1 << 160), ("request_id", True),
        ("request_id", 1 << 64),
    ], ids=[
        "seed-negative", "seed-past-128-bits", "size-past-64-bits",
        "key-past-128-bits", "file-id-past-160-bits",
        "request-id-bool", "request-id-past-64-bits",
    ])
    def test_a_value_outside_its_range_is_refused(self, inprocess, name, value):
        """Right type, wrong value: a synthetic file whose hash cannot
        be taken, an id past its space, a bool where an int belongs, an
        int past 64 bits."""
        _, by_shape, registered = inprocess
        carriers = [message for message in by_shape.values()
                    if name in message.payload]
        assert carriers
        for message in carriers:
            assert not well_formed(with_payload(message, **{name: value}),
                                   registered), (shape(message), name)

    def test_a_certificate_missing_a_field_is_refused(self, inprocess):
        _, by_shape, registered = inprocess
        carriers = [message for message in by_shape.values()
                    if message.payload.get("certificate") is not None]
        assert {shape(message) for message in carriers} == {
            ("route", "past-insert"), ("store-request", None),
            ("lookup-result", None),
        }
        for message in carriers:
            certificate = message.payload["certificate"]
            for name in certificate.envelope.fields:
                spoiled = with_payload(message, certificate=drop_certificate_field(
                    certificate, name))
                assert not well_formed(spoiled, registered), (shape(message), name)

    def test_a_malformed_traceparent_is_refused(self, inprocess):
        _, by_shape, registered = inprocess
        message = by_shape[("announce", None)]
        for header in ("garbage", "00-" + "0" * 32 + "-" + "cd" * 8 + "-01"):
            spoiled = Message(kind=message.kind, sender=message.sender,
                              payload={}, traceparent=header)
            assert not well_formed(spoiled, registered), header

    def test_a_collector_address_sends_requests_only(self, inprocess):
        """The collector's address is registered but lies outside the
        id space: it may ask for telemetry, never speak for a node."""
        _, by_shape, registered = inprocess
        probe = by_shape[("health-probe", None)]
        collector = probe.sender
        assert collector >= 1 << 128 and collector in registered
        assert well_formed(probe, registered)
        announce = Message(kind="announce", sender=collector, payload={})
        assert not well_formed(announce, registered)


#: Frame payload bytes, beyond the files they carry, of the 286 messages
#: :func:`exercise` sends: 29 137 at wire format version 3, with 5% of
#: headroom.  Version 2, whose telemetry replies were tagged values and
#: which also subscribed to series, spent 49 693 on 298 messages;
#: version 1 (self-describing tagged values throughout) spent 70 632.
NON_FILE_BYTES_CEILING = 30_594


class TestByteBudget:
    def test_the_traffic_of_exercise_fits_its_byte_budget(self, inprocess):
        sent, _, _ = inprocess
        file_bytes = sum(message.payload["data"].size for message in sent
                         if isinstance(message.payload.get("data"), RealData))
        wire_bytes = sum(len(encode_message(message)) for message in sent)
        assert len(sent) == 286
        assert wire_bytes - file_bytes <= NON_FILE_BYTES_CEILING


# ---------------------------------------------------------------------- #
# the edge over real sockets
# ---------------------------------------------------------------------- #


class Edge:
    """One socket cluster on its own loop, kept across Hypothesis
    examples, and a foreign TCP client writing frames at one node."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.cluster = LiveStorageCluster(seed=43, transport=SocketTransport())
        self.sent = capture(self.cluster.transport)
        self.loop.run_until_complete(exercise(self.cluster))
        self.samples = list(samples(self.sent).values())
        self.ids = self.cluster.live_ids()
        self.victim = self.ids[0]

    def land(self, frames):
        """Write *frames* to the victim's listener, then a route from
        the victim; return that route's path once it came back (None if
        a node task ended first).  The victim serves its mailbox in
        order, so by then every frame was discarded at the edge or
        handled."""
        return self.loop.run_until_complete(self._land(frames))

    async def _land(self, frames):
        cluster = self.cluster
        host, port = await cluster.transport._pool.resolve(self.victim)
        _, writer = await asyncio.open_connection(host, port)
        request_id = next(cluster._request_ids)
        future = self.loop.create_future()
        cluster._reply_futures[request_id] = future
        marker = Message(kind="route", sender=self.victim, payload={
            "key": cluster.space.random_id(random.Random(request_id)),
            "origin": self.victim, "purpose": "lookup", "trail": [],
            "request_id": request_id,
        })
        for frame in frames + [encode_message(marker)]:
            writer.write(encode_frame(frame))
        await writer.drain()
        tasks = {node._task for node in cluster.nodes.values()}
        done, _ = await asyncio.wait(tasks | {future}, timeout=10.0,
                                     return_when=asyncio.FIRST_COMPLETED)
        writer.close()
        return future.result() if future in done else None

    def alive(self):
        return all(not node._task.done() for node in self.cluster.nodes.values())

    def close(self):
        try:
            self.loop.run_until_complete(self.cluster.shutdown())
        finally:
            self.loop.close()


@pytest.fixture(scope="module")
def edge():
    edge = Edge()
    yield edge
    try:
        assert edge.alive()
    finally:
        edge.close()  # re-raises whatever ended a node task


#: A foreign peer's ids: unregistered, inside and outside the id space.
FOREIGN_IDS = [1, (1 << 127) + 5, 1 << 131]
#: Ints the wire writes (zigzag, up to 70 bits) past ``INT``'s 64.
WIDE_INTS = [1 << 64, -(1 << 64), (1 << 69) - 1]
ZERO_IDS = ["00-" + "0" * 32 + "-" + "cd" * 8 + "-01",
            "00-" + "ab" * 16 + "-" + "0" * 16 + "-01"]


def fields_of(message, *types):
    """The payload fields of *message* whose field type is one of *types*."""
    schema = schema_of(message)
    table = {**schema.required, **schema.optional}
    return sorted(name for name in message.payload
                  if any(table[name] is field for field in types))


def mutated(edge, message, data):
    """A real message broken one way, as the bytes a foreign peer would
    write: its frame cut, flipped or spliced with another; or rewritten
    with a value the wire can carry and the edge must refuse -- an
    unregistered sender or node id, an ``INT`` past 64 bits, a zero
    trace or span id."""
    how = data.draw(st.sampled_from(
        ["cut", "flip", "splice", "sender", "node", "int", "traceparent"]))
    wire = encode_message(message)
    position = data.draw(st.integers(0, len(wire) - 1))
    if how == "cut":
        return wire[:position]
    if how == "flip":
        flipped = bytearray(wire)
        flipped[position] ^= data.draw(st.integers(1, 255))
        return bytes(flipped)
    if how == "splice":
        other = encode_message(data.draw(st.sampled_from(edge.samples)))
        start = data.draw(st.integers(0, len(other)))
        stop = data.draw(st.integers(start, len(other)))
        resume = data.draw(st.integers(position, len(wire)))
        return wire[:position] + other[start:stop] + wire[resume:]
    payload = dict(message.payload)
    sender, traceparent = message.sender, message.traceparent
    nodes = fields_of(message, NODE, NODES)
    ints = fields_of(message, INT)
    if how == "node" and nodes:
        name = data.draw(st.sampled_from(nodes))
        bad = data.draw(st.sampled_from(FOREIGN_IDS[:2]))
        payload[name] = [bad] if isinstance(payload[name], list) else bad
    elif how == "int" and ints:
        payload[data.draw(st.sampled_from(ints))] = data.draw(st.sampled_from(WIDE_INTS))
    elif how == "traceparent":
        traceparent = data.draw(st.sampled_from(ZERO_IDS))
    else:
        limit = 2 if LIVE_KINDS[message.kind].sender is NODE else 3
        sender = data.draw(st.sampled_from(FOREIGN_IDS[:limit]))
    return encode_message(Message(kind=message.kind, sender=sender,
                                  payload=payload, traceparent=traceparent,
                                  message_id=message.message_id))


def from_grammar(edge, data):
    """A frame from the grammar: any message the wire can write, its
    fields drawn from the table's types and its sender sometimes a node
    of the cluster; or a version byte and a shape id, known or not,
    over arbitrary bytes."""
    if data.draw(st.booleans()):
        return (bytes([WIRE_VERSION, data.draw(st.integers(0, 255))])
                + data.draw(st.binary(max_size=60)))
    message = data.draw(messages())
    if data.draw(st.booleans()):
        message.sender = data.draw(st.sampled_from(edge.ids))
    return encode_message(message)


@pytest.mark.socket
class TestSocketEdge:
    def test_the_cluster_never_sends_a_frame_the_edge_discards(self, edge):
        assert {shape(message) for message in edge.sent} == ALL_SHAPES
        assert edge.cluster.transport.frames_discarded == 0

    @given(data=st.data())
    # No shrinking: every example runs on the one cluster the earlier
    # examples changed, so a smaller replay would not mean the same.
    @settings(max_examples=100, deadline=None,
              phases=[Phase.explicit, Phase.generate])
    def test_hostile_frames_are_discarded_or_handled(self, edge, data):
        """Each example breaks every real sample one way, and adds a few
        messages from the grammar."""
        frames = [mutated(edge, sample, data) for sample in edge.samples]
        frames += [from_grammar(edge, data)
                   for _ in range(data.draw(st.integers(0, 4)))]
        path = edge.land(frames)
        assert edge.alive()
        assert isinstance(path, list)
