"""Property tests for the socket wire format.

Framing first (length-prefixed frames over an arbitrarily-chunked byte
stream): round-trips on randomized payloads, torn reads at *every* byte
boundary, oversized-frame rejection, and garbage-prefix resync.  Then
the message codec (wire format version 3, generated from the kind
table): every message of every shape must survive encode/decode
(Hypothesis over the table's field types, one canonical frame per shape
with its length pinned, and one pinned example per form byte), a
message that does not fit its shape must fail loudly at encode time, and
no sequence of bytes -- garbage, truncated, mutated, or lying about its
own lengths -- may get anything but a ``CodecError`` out of the decoder.

These are pure unit tests -- no sockets are opened -- so they run in
tier-1 everywhere.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.certificates import FILE_CERT_KIND, FileCertificate
from repro.core.files import RealData, SyntheticData
from repro.core.smartcard import SmartCard, make_uncertified_card
from repro.crypto.keys import PublicKey, _FastPublicKey, generate_keypair
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.signatures import SignedEnvelope
from repro.live.net import (
    CodecError,
    FrameDecoder,
    FrameTooLarge,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.live.net.codec import (
    FAST_KEY,
    FIELD_FORMS,
    REAL,
    RSA_KEY,
    SHAPES,
    SYNTHETIC,
    VARINT_BYTES,
    WIRE_VERSION,
)
from repro.live.net.framing import HEADER_BYTES, MAGIC
from repro.live.transport import (
    CERTIFICATE_FIELDS,
    LIVE_KINDS,
    ROUTE_PURPOSES,
    Message,
    well_formed,
)


class TestFrameRoundTrip:
    def test_single_frame(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(b"hello")) == [b"hello"]

    def test_empty_payload(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(b"")) == [b""]

    def test_randomized_payloads_randomized_chunking(self):
        """100 random payloads concatenated, re-fed in random chunk
        sizes: every payload comes back, in order, byte-identical."""
        rng = random.Random(7)
        payloads = [
            rng.randbytes(rng.randrange(0, 400)) for _ in range(100)
        ]
        stream = b"".join(encode_frame(p) for p in payloads)
        decoder = FrameDecoder()
        out = []
        position = 0
        while position < len(stream):
            step = rng.randrange(1, 37)
            out.extend(decoder.feed(stream[position:position + step]))
            position += step
        assert out == payloads
        assert decoder.pending() == 0
        assert decoder.resynced_bytes == 0

    def test_torn_at_every_byte_boundary(self):
        """A frame split into two feeds at every possible offset --
        including inside the magic and inside the length word."""
        payload = b'{"kind":"route","sender":12}'
        frame = encode_frame(payload)
        for split in range(len(frame) + 1):
            decoder = FrameDecoder()
            out = decoder.feed(frame[:split])
            out += decoder.feed(frame[split:])
            assert out == [payload], f"split at byte {split}"

    def test_many_frames_in_one_feed(self):
        payloads = [b"a", b"bb", b"ccc"]
        stream = b"".join(encode_frame(p) for p in payloads)
        assert FrameDecoder().feed(stream) == payloads


class TestFrameLimits:
    def test_oversized_declared_length_rejected(self):
        decoder = FrameDecoder(max_frame=64)
        bogus = MAGIC + (65).to_bytes(4, "big")
        with pytest.raises(FrameTooLarge):
            decoder.feed(bogus + b"\x00" * 65)

    def test_limit_is_inclusive(self):
        decoder = FrameDecoder(max_frame=64)
        payload = b"x" * 64
        assert decoder.feed(encode_frame(payload)) == [payload]

    def test_encode_respects_limit(self):
        with pytest.raises(FrameTooLarge):
            encode_frame(b"x" * 65, max_frame=64)

    def test_oversized_rejection_does_not_allocate_declared_size(self):
        """The decoder must refuse on the *header*, before the payload
        arrives -- a hostile 4 GiB declaration costs nothing."""
        decoder = FrameDecoder(max_frame=1024)
        header = MAGIC + (0xFFFF_FFFF).to_bytes(4, "big")
        with pytest.raises(FrameTooLarge):
            decoder.feed(header)
        assert decoder.pending() < HEADER_BYTES


class TestResync:
    def test_garbage_prefix_skipped(self):
        decoder = FrameDecoder()
        garbage = b"\x00\x01\x02 not a frame \x03"
        out = decoder.feed(garbage + encode_frame(b"ok"))
        assert out == [b"ok"]
        assert decoder.resynced_bytes == len(garbage)

    def test_garbage_containing_partial_magic(self):
        """Garbage that includes the first magic byte must not derail
        the scan past the real frame start."""
        decoder = FrameDecoder()
        garbage = b"xx" + MAGIC[:1] + b"yy"
        out = decoder.feed(garbage + encode_frame(b"ok"))
        assert out == [b"ok"]

    def test_magic_split_across_garbage_boundary_feeds(self):
        """The stream tears right inside the magic after garbage: the
        decoder must keep the dangling magic prefix across feeds."""
        decoder = FrameDecoder()
        frame = encode_frame(b"ok")
        assert decoder.feed(b"junk" + frame[:1]) == []
        assert decoder.feed(frame[1:]) == [b"ok"]

    def test_resync_between_frames(self):
        decoder = FrameDecoder()
        stream = encode_frame(b"one") + b"corrupt!" + encode_frame(b"two")
        assert decoder.feed(stream) == [b"one", b"two"]
        assert decoder.resynced_bytes == len(b"corrupt!")

    def test_pure_garbage_drains(self):
        decoder = FrameDecoder()
        assert decoder.feed(b"\x01\x02\x03\x04" * 10) == []
        # Nothing but (possibly) a dangling magic prefix is retained.
        assert decoder.pending() < len(MAGIC)


# ---------------------------------------------------------------------- #
# writing frames by hand, byte for byte as docs/PROTOCOLS.md lays them out
# ---------------------------------------------------------------------- #


def varint(number):
    out = bytearray()
    while number >= 0x80:
        out.append(number & 0x7F | 0x80)
        number >>= 7
    out.append(number)
    return bytes(out)


def shape_id(kind, purpose=None):
    (shape,) = [shape for shape in SHAPES
                if (shape.kind, shape.purpose) == (kind, purpose)]
    return shape.id


#: Sender, message_id 0 and no traceparent, for a node-sent shape.
NODE_HEADER = (1).to_bytes(16, "big") + b"\x00" + b"\x00"


def head(kind, purpose=None):
    return bytes([WIRE_VERSION, shape_id(kind, purpose)]) + NODE_HEADER


#: A ``telemetry-snapshot`` up to its presence byte: request_id 0, node
#: "n", joined, and zero known nodes, leaf-set members and mailbox depth.
SNAPSHOT_HEAD = (head("telemetry-snapshot") + varint(0) + varint(1) + b"n"
                 + b"\x01" + b"\x00" * 3)
#: Presence bytes marking only the snapshot's ``registry``, only its
#: ``ledger``.
REGISTRY_ONLY, LEDGER_ONLY = b"\x04", b"\x08"


#: The seven certificate fields, each at its smallest: name "f", zero
#: ids, zero ints.
CERTIFICATE_BODY = varint(1) + b"f" + bytes(40) + b"\x00" * 4


def _card():
    return make_uncertified_card(
        random.Random(5), usage_quota=1 << 40, backend="insecure_fast"
    )


# ---------------------------------------------------------------------- #
# one canonical message per shape
# ---------------------------------------------------------------------- #

KEY = 0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF
NODE_A, NODE_B = 0xA1 << 120, 0xB2 << 120
COLLECTOR = 1 << 130
REGISTERED = {NODE_A, NODE_B, COLLECTOR}
TRACEPARENT = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
DATA = RealData(b"certified content")
CERTIFICATE = _card().issue_file_certificate("file", DATA, 3, salt=7,
                                             insertion_date=0)
_ROUTE = {"key": KEY, "trail": [NODE_A]}
CANONICAL = {
    ("route", "lookup"): {**_ROUTE, "origin": NODE_A, "request_id": 7,
                          "randomized_seed": 99},
    ("route", "join"): {**_ROUTE, "origin": NODE_A,
                        "collect_rows": [[0, [NODE_B, None]]],
                        "contact_neighborhood": [NODE_B]},
    ("route", "past-insert"): {**_ROUTE, "client": NODE_A, "request_id": 7,
                               "certificate": CERTIFICATE, "data": DATA},
    ("route", "past-lookup"): {**_ROUTE, "client": NODE_A, "request_id": 7,
                               "file_id": CERTIFICATE.file_id},
    ("route-result", None): {"request_id": 7, "path": [NODE_A, NODE_B],
                             "key": KEY},
    ("join-request", None): {"joiner": NODE_A},
    ("join-reply", None): {"leaf_set": [NODE_A, NODE_B],
                           "neighborhood": [NODE_A],
                           "rows": [[0, [NODE_B, None]]], "trail": [NODE_B]},
    ("announce", None): {},
    ("leafset-request", None): {},
    ("leafset-reply", None): {"members": [NODE_A, NODE_B]},
    ("store-request", None): {"request_id": 7, "certificate": CERTIFICATE,
                              "data": DATA},
    ("store-ack", None): {"request_id": 7, "ok": True},
    ("insert-result", None): {"request_id": 7, "success": False,
                              "holders": [NODE_A], "reason": "duplicate"},
    ("lookup-result", None): {"request_id": 7, "certificate": CERTIFICATE,
                              "data": DATA, "serving_node": NODE_B},
    ("telemetry-scrape", None): {"request_id": 7},
    ("health-probe", None): {"request_id": 7},
    ("telemetry-snapshot", None): {
        "request_id": 7, "node": "a1", "joined": True, "known_nodes": 5,
        "leaf_set": 4, "mailbox_depth": 0, "store_files": 2, "store_bytes": 90,
        "registry": [[["c", [["kind", "route"]], 1]], [["g", [], 0.5]],
                     [["h", [], [1.0, 2.5]]], [["c", "Routes."]]],
        "ledger": [3, 150, [["route", 150]], 0, [[NODE_A, 150]]]},
    ("health-report", None): {
        "request_id": 7, "node": "a1", "joined": True, "known_nodes": 5,
        "leaf_set": 4, "mailbox_depth": 0, "healthy": True, "running": True,
        "mailbox_headroom": True, "mailbox_limit": 1024,
        "wire": ["SocketTransport", 3, 2, 0, 0, 0, 0, 0, 9, 0, 700, 9, 0]},
}
#: Frame payload bytes of each canonical message: a codec that grows
#: fails here, not only in the benchmark.
#: The header is 47 of them: version, shape id, a 16-byte sender, a
#: two-byte message_id and a 27-byte traceparent.
CANONICAL_BYTES = {
    ("route", "lookup"): 100, ("route", "join"): 134,
    ("route", "past-insert"): 233, ("route", "past-lookup"): 118,
    ("route-result", None): 97, ("join-request", None): 63,
    ("join-reply", None): 135, ("announce", None): 47,
    ("leafset-request", None): 47, ("leafset-reply", None): 80,
    ("store-request", None): 183, ("store-ack", None): 49,
    ("insert-result", None): 77, ("lookup-result", None): 201,
    ("telemetry-scrape", None): 50, ("health-probe", None): 50,
    ("telemetry-snapshot", None): 152, ("health-report", None): 93,
}


def canonical(kind, purpose=None):
    payload = dict(CANONICAL[kind, purpose])
    if purpose is not None:
        payload["purpose"] = purpose
    sender = COLLECTOR if LIVE_KINDS[kind].sender.form == "address" else NODE_A
    return Message(kind=kind, sender=sender, payload=payload,
                   message_id=300, traceparent=TRACEPARENT)


ALL_SHAPES = [(shape.kind, shape.purpose) for shape in SHAPES]
CANONICAL_FRAMES = [encode_message(canonical(*key)) for key in ALL_SHAPES]


def schema_of(kind, purpose):
    return LIVE_KINDS[kind].payload or ROUTE_PURPOSES[purpose]


class TestMessageCodec:
    def test_plain_payload_round_trip(self):
        message = Message(
            kind="route", sender=0xABCDEF,
            payload={"request_id": 5, "trail": [1, 2, 3], "purpose": "lookup",
                     "key": 1 << 127, "origin": 4, "randomized_seed": -9},
            message_id=42, traceparent=TRACEPARENT,
        )
        decoded = decode_message(encode_message(message))
        assert decoded == message
        # Fields come back in schema order, whatever order they were built in.
        assert list(decoded.payload) == ["key", "purpose", "trail", "origin",
                                         "request_id", "randomized_seed"]

    def test_big_ints_survive(self):
        """nodeIds are 128-bit and fileIds 160-bit ints, signatures far
        larger -- the wire must carry them exactly, no truncation."""
        message = Message(kind="route", sender=(1 << 128) - 1, payload={
            "key": (1 << 128) - 1, "purpose": "past-lookup", "trail": [],
            "client": 0, "request_id": (1 << 64) - 1,
            "file_id": (1 << 160) - 1})
        assert decode_message(encode_message(message)) == message
        huge = (1 << 512) + 12345
        envelope = CERTIFICATE.envelope
        signed = FileCertificate(SignedEnvelope(
            kind=envelope.kind, fields=envelope.fields, signer=envelope.signer,
            signature=huge))
        store = Message(kind="store-request", sender=1, payload={
            "request_id": 1, "certificate": signed, "data": DATA})
        assert decode_message(encode_message(store)) == store

    def test_tuples_normalize_to_lists(self):
        reply = Message(kind="join-reply", sender=1, payload={
            "leaf_set": (1, 2), "neighborhood": [], "rows": [(0, (1, None))],
            "trail": []})
        assert decode_message(encode_message(reply)).payload == {
            "leaf_set": [1, 2], "neighborhood": [], "rows": [[0, [1, None]]],
            "trail": []}

    def test_synthetic_and_real_data(self):
        synthetic = SyntheticData(seed=9, size=5000)
        insert = canonical("route", "past-insert")
        insert.payload["data"] = synthetic
        assert decode_message(encode_message(insert)).payload["data"] == synthetic
        store = canonical("store-request")
        store.payload["data"] = RealData(b"\x00\x01binary\xff")
        assert decode_message(encode_message(store)) == store
        missing = Message(kind="lookup-result", sender=1, payload={
            "request_id": 1, "certificate": None, "data": None,
            "serving_node": 2})
        assert decode_message(encode_message(missing)) == missing

    def test_certificate_round_trip_still_verifies(self):
        decoded = decode_message(encode_message(canonical("store-request")))
        restored: FileCertificate = decoded.payload["certificate"]
        assert restored == CERTIFICATE
        assert restored.verify(), "signature must survive the wire"

    def test_rsa_public_key_round_trip(self):
        keypair = generate_keypair(random.Random(11), backend="rsa", bits=256)
        card = SmartCard(keypair, usage_quota=1 << 40)
        certificate = card.issue_file_certificate("rsa", DATA, 3, salt=1,
                                                  insertion_date=0)
        message = canonical("store-request")
        message.payload["certificate"] = certificate
        restored = decode_message(encode_message(message)).payload["certificate"]
        assert restored.envelope.signer == keypair.public
        assert restored.verify()

    def test_raw_bytes_round_trip(self):
        raw = bytes(range(256))
        store = canonical("store-request")
        store.payload["data"] = RealData(raw)
        assert decode_message(encode_message(store)).payload["data"] == RealData(raw)

    def test_unknown_object_fails_at_encode_time(self):
        snapshot = canonical("telemetry-snapshot")
        snapshot.payload["registry"] = [[], [["g", [], object()]], [], []]
        with pytest.raises(CodecError):
            encode_message(snapshot)
        store = canonical("store-request")
        store.payload["data"] = object()
        with pytest.raises(CodecError):
            encode_message(store)

    def test_non_string_dict_key_rejected(self):
        """A metric's labels are a str -> str dict, travelling as pairs."""
        snapshot = canonical("telemetry-snapshot")
        snapshot.payload["registry"] = [[["c", [[1, "x"]], 1]], [], [], []]
        with pytest.raises(CodecError):
            encode_message(snapshot)

    def test_garbage_payload_rejected(self):
        with pytest.raises(CodecError):
            decode_message(b"\xff\xfenot a payload")
        with pytest.raises(CodecError):
            decode_message(b"")
        # The formats this one replaced, refused on their first byte: JSON,
        # a version-1 payload (kind as a tagged str, then the rest), and
        # a version-2 one, whose telemetry shape ids meant other shapes.
        with pytest.raises(CodecError):
            decode_message(b'{"kind":"x","sender":1,"payload":{}}')
        with pytest.raises(CodecError, match="not a version-3"):
            decode_message(b"\x01\x06" + bytes(4) + b"\x08announce")
        for frame in CANONICAL_FRAMES:
            with pytest.raises(CodecError, match="not a version-3"):
                decode_message(b"\x02" + frame[1:])
        # A header cut short after the shape id, and inside the sender.
        with pytest.raises(CodecError):
            decode_message(bytes([WIRE_VERSION, shape_id("announce")]))
        with pytest.raises(CodecError):
            decode_message(head("announce")[:10])

    def test_identical_messages_encode_identically(self):
        """The same message gives the same bytes -- and, fields being
        written in schema order, so does the same payload built in
        another order."""
        def build(order):
            fields = {"key": 5, "purpose": "lookup", "trail": [5, 6],
                      "origin": 3, "request_id": 9}
            return Message(kind="route", sender=3, message_id=9,
                           payload={name: fields[name] for name in order})

        forward = build(["key", "purpose", "trail", "origin", "request_id"])
        assert encode_message(forward) == encode_message(build(forward.payload))
        assert encode_message(forward) == encode_message(
            build(reversed(list(forward.payload))))


# ---------------------------------------------------------------------- #
# every shape, drawn from the kind table's field types
# ---------------------------------------------------------------------- #

ids = st.integers(min_value=0, max_value=(1 << 128) - 1)
uints = st.integers(min_value=0, max_value=(1 << 70) - 1)
public_keys = st.one_of(
    st.builds(lambda secret: PublicKey(_FastPublicKey(secret=secret)),
              st.binary(max_size=40)),
    st.builds(lambda n, e: PublicKey(RsaPublicKey(n=n, e=e)),
              st.integers(min_value=0, max_value=1 << 600),
              st.integers(min_value=0, max_value=1 << 17)),
)


def _certificates():
    fields = st.fixed_dictionaries({
        name: strategy(field)
        for name, field in CERTIFICATE_FIELDS.required.items()})
    return st.builds(
        lambda fields, signer, signature: FileCertificate(SignedEnvelope(
            kind=FILE_CERT_KIND, fields=fields, signer=signer,
            signature=signature)),
        fields, public_keys, st.integers(min_value=0, max_value=1 << 600))


#: One strategy per wire form, called with the strategies of its items
#: (the test below holds this to FIELD_FORMS, so a new form cannot go
#: unexercised).
STRATEGY_OF = {
    "id": lambda: ids,
    "file-id": lambda: st.integers(min_value=0, max_value=(1 << 160) - 1),
    "int": lambda: st.integers(min_value=-(1 << 69), max_value=(1 << 69) - 1),
    "uint": lambda: uints,
    "bool": st.booleans,
    # NaN travels too, but is not equal to itself.
    "float": lambda: st.floats(allow_nan=False),
    "str": st.text,
    "address": lambda: st.integers(min_value=0, max_value=1 << 200),
    "data": lambda: st.one_of(
        st.builds(SyntheticData, seed=ids, size=uints),
        st.builds(RealData, st.binary())),
    "certificate": _certificates,
    "list": lambda item: st.lists(item, max_size=3),
    "maybe": lambda item: st.none() | item,
    "row": lambda *items: st.tuples(*items).map(list),
}


def strategy(field):
    return STRATEGY_OF[field.form](*(strategy(item) for item in field.items))


traceparents = st.binary(min_size=26, max_size=26).map(
    lambda raw: "-".join((raw[:1].hex(), raw[1:17].hex(), raw[17:25].hex(),
                          raw[25:].hex())))


@st.composite
def messages(draw, shapes=st.sampled_from(SHAPES)):
    """Any message the wire can write: a shape, its sender type, and
    each of its fields drawn from the field type the table gives it."""
    shape = draw(shapes)
    schema = schema_of(shape.kind, shape.purpose)
    payload = {}
    for name, field in schema.required.items():
        payload[name] = (shape.purpose if name == "purpose"
                         else draw(strategy(field)))
    for name, field in schema.optional.items():
        if draw(st.booleans()):
            payload[name] = draw(strategy(field))
    return Message(kind=shape.kind,
                   sender=draw(strategy(LIVE_KINDS[shape.kind].sender)),
                   payload=payload, message_id=draw(uints),
                   traceparent=draw(st.none() | traceparents))


def decodes_or_refuses(payload):
    """The decoder's whole contract on untrusted bytes."""
    try:
        assert isinstance(decode_message(payload), Message)
    except CodecError:
        pass


def forms_in(field):
    yield field.form
    for item in field.items:
        yield from forms_in(item)


class TestValueGrammar:
    """The grammar of the wire: each field form and the values it writes."""

    def test_strategies_cover_the_wire_table(self):
        """Every form the table names has a strategy and a codec entry,
        and the codec has no form the table does not use."""
        used = set()
        for row in LIVE_KINDS.values():
            used |= set(forms_in(row.sender))
        schemas = [row.payload for row in LIVE_KINDS.values() if row.payload]
        for schema in schemas + list(ROUTE_PURPOSES.values()) + [CERTIFICATE_FIELDS]:
            for field in {**schema.required, **schema.optional}.values():
                used |= set(forms_in(field))
        assert used == set(FIELD_FORMS) == set(STRATEGY_OF)

    @given(messages())
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, message):
        wire = encode_message(message)
        decoded = decode_message(wire)
        assert decoded == message
        assert encode_message(decoded) == wire

    def test_every_row_round_trips_under_its_own_tag(self):
        """Each form byte of a data field and of a certificate's signer,
        found on the wire where docs/PROTOCOLS.md puts it; and a
        registry row, each value by its form: a float as its 8 IEEE 754
        bytes."""
        registry = [[["c", [["k", "v"]], -1]], [["g", [], -0.0]],
                    [["h", [], [0.25]]], [["c", "é"]]]
        snapshot = Message(kind="telemetry-snapshot", sender=1, payload={
            "request_id": 0, "node": "n", "joined": True, "known_nodes": 0,
            "leaf_set": 0, "mailbox_depth": 0, "registry": registry})
        wire = encode_message(snapshot)
        assert wire == (SNAPSHOT_HEAD + REGISTRY_ONLY
                        + varint(1) + varint(1) + b"c" + varint(1) + varint(1)
                        + b"k" + varint(1) + b"v" + varint(1)
                        + varint(1) + varint(1) + b"g" + varint(0)
                        + b"\x80" + bytes(7)
                        + varint(1) + varint(1) + b"h" + varint(0) + varint(1)
                        + b"\x3f\xd0" + bytes(6)
                        + varint(1) + varint(1) + b"c" + varint(2) + "é".encode())
        assert repr(decode_message(wire)) == repr(snapshot)

        # name "file", the two 160-bit ids, size 17, k 3 (zigzag 6),
        # salt 7, date 0; then the signer's form byte.
        fields = (varint(4) + b"file" + CERTIFICATE.file_id.to_bytes(20, "big")
                  + CERTIFICATE.content_hash.to_bytes(20, "big")
                  + varint(17) + varint(6) + varint(7) + varint(0))
        envelope = CERTIFICATE.envelope
        rsa = generate_keypair(random.Random(11), backend="rsa", bits=256).public
        for backend, signer, data in (
                (FAST_KEY, envelope.signer, DATA),
                (RSA_KEY, rsa, SyntheticData(seed=9, size=5000))):
            certificate = FileCertificate(SignedEnvelope(
                kind=envelope.kind, fields=envelope.fields, signer=signer,
                signature=envelope.signature))
            message = Message(kind="store-request", sender=1, payload={
                "request_id": 0, "certificate": certificate, "data": data})
            wire = encode_message(message)
            assert wire.startswith(head("store-request") + varint(0) + fields
                                   + bytes([backend])), hex(backend)
            if type(data) is RealData:
                tail = bytes([REAL]) + varint(data.size) + data.to_bytes()
            else:
                tail = (bytes([SYNTHETIC]) + data.seed.to_bytes(16, "big")
                        + varint(data.size))
            assert wire.endswith(tail)
            assert decode_message(wire) == message

    def test_header_is_typed_on_both_sides(self):
        for kind in (7, "stop", None):
            with pytest.raises(CodecError, match="no shape"):
                encode_message(Message(kind=kind, sender=1))
        with pytest.raises(CodecError, match="no shape"):
            encode_message(Message(kind="route", sender=1,
                                   payload={"purpose": "gossip"}))
        with pytest.raises(CodecError, match="payload is a dict"):
            encode_message(Message(kind="announce", sender=1, payload=None))
        for sender in (-1, 1 << 128, "1", True):
            with pytest.raises(CodecError):
                encode_message(Message(kind="announce", sender=sender))
        with pytest.raises(CodecError):
            encode_message(Message(kind="health-probe", sender=-1,
                                   payload={"request_id": 1}))
        for header in ("garbage", TRACEPARENT.upper(), TRACEPARENT + " ",
                       TRACEPARENT.replace("-", "_"), 7):
            with pytest.raises(CodecError, match="traceparent"):
                encode_message(Message(kind="announce", sender=1,
                                       traceparent=header))
        with pytest.raises(CodecError):
            encode_message(Message(kind="announce", sender=1, message_id=-1))
        with pytest.raises(CodecError, match="unknown shape id"):
            decode_message(bytes([WIRE_VERSION, len(SHAPES)]) + NODE_HEADER)

    def test_domain_fields_are_typed(self):
        """Form bytes and flags name one of their values or are refused:
        a data form, a signer backend, a bool, a maybe, a presence byte."""
        store = head("store-request") + varint(0) + CERTIFICATE_BODY
        with pytest.raises(CodecError, match="unknown signer backend 0x14"):
            decode_message(store + b"\x14")
        signed = store + bytes([FAST_KEY]) + varint(0) + varint(0)
        assert decode_message(signed + bytes([REAL]) + varint(0))
        with pytest.raises(CodecError, match="unknown data form 0x15"):
            decode_message(signed + b"\x15")
        with pytest.raises(CodecError, match="neither 0 nor 1"):
            decode_message(head("store-ack") + varint(0) + b"\x02")
        with pytest.raises(CodecError, match="neither 0 nor 1"):
            decode_message(head("lookup-result") + varint(0) + b"\x02")
        with pytest.raises(CodecError, match="presence byte"):
            decode_message(head("insert-result") + varint(0) + b"\x00"
                           + varint(0) + b"\x02")

    def test_the_frame_of_each_shape_has_its_pinned_length(self):
        for key, frame in zip(ALL_SHAPES, CANONICAL_FRAMES):
            assert well_formed(decode_message(frame), REGISTERED), key
        assert set(CANONICAL) == set(ALL_SHAPES) == set(CANONICAL_BYTES)
        assert dict(zip(ALL_SHAPES, map(len, CANONICAL_FRAMES))) == CANONICAL_BYTES


class TestEncodeRefusal:
    """A message that does not fit its shape never reaches the wire."""

    @pytest.mark.parametrize("key", ALL_SHAPES, ids=lambda key: "/".join(filter(None, key)))
    def test_missing_extra_and_unwritable_fields_are_refused(self, key):
        message = canonical(*key)
        optional = schema_of(*key).optional
        for name in message.payload:
            payload = {k: v for k, v in message.payload.items() if k != name}
            dropped = Message(kind=message.kind, sender=message.sender,
                              payload=payload)
            if name in optional:
                assert decode_message(encode_message(dropped)).payload == payload
            else:
                with pytest.raises(CodecError):
                    encode_message(dropped)
            unwritable = dict(message.payload, **{name: object()})
            if name != "purpose":
                with pytest.raises(CodecError):
                    encode_message(Message(kind=message.kind, sender=message.sender,
                                           payload=unwritable))
        with pytest.raises(CodecError, match="fields its shape has not"):
            encode_message(Message(kind=message.kind, sender=message.sender,
                                   payload=dict(message.payload,
                                                traceparent=TRACEPARENT)))

    def test_values_past_their_slot_are_refused(self):
        """A negative id, an id past its 16 or 20 bytes, an int past 70
        bits, a bool for an int, an int for a float, a row of the wrong
        width: no form can write them."""
        for name, value in (("key", -5), ("key", 1 << 128), ("trail", [1 << 140]),
                            ("trail", ["x"]), ("request_id", 1 << 69),
                            ("request_id", True), ("file_id", 1 << 160)):
            message = canonical("route", "past-lookup")
            message.payload[name] = value
            with pytest.raises(CodecError):
                encode_message(message)
        for name, value in (("wire", ["SocketTransport", 3]),
                            ("wire", CANONICAL["health-report", None]["wire"] + [0]),
                            ("mailbox_limit", 1.0)):
            message = canonical("health-report")
            message.payload[name] = value
            with pytest.raises(CodecError):
                encode_message(message)
        snapshot = canonical("telemetry-snapshot")
        snapshot.payload["registry"] = [[], [["g", [], 1]], [], []]
        with pytest.raises(CodecError):
            encode_message(snapshot)
        certificate = CERTIFICATE.envelope
        for fields in ({**certificate.fields, "extra": 1},
                       {k: v for k, v in certificate.fields.items() if k != "k"},
                       {**certificate.fields, "size": -1}):
            message = canonical("store-request")
            message.payload["certificate"] = FileCertificate(SignedEnvelope(
                kind=certificate.kind, fields=fields, signer=certificate.signer,
                signature=certificate.signature))
            with pytest.raises(CodecError):
                encode_message(message)
        message = canonical("store-request")
        message.payload["certificate"] = FileCertificate(SignedEnvelope(
            kind="past.store-receipt", fields=certificate.fields,
            signer=certificate.signer, signature=certificate.signature))
        with pytest.raises(CodecError):
            encode_message(message)


class TestHostileBytes:
    @given(st.binary(max_size=200), st.integers(0, len(SHAPES)))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, noise, shape):
        decodes_or_refuses(noise)
        decodes_or_refuses(bytes([WIRE_VERSION]) + noise)
        decodes_or_refuses(bytes([WIRE_VERSION, shape]) + noise)

    def test_every_proper_prefix_is_refused(self):
        for wire in CANONICAL_FRAMES:
            for cut in range(len(wire)):
                with pytest.raises(CodecError):
                    decode_message(wire[:cut])

    def test_trailing_bytes_refused(self):
        for wire in CANONICAL_FRAMES:
            with pytest.raises(CodecError, match="trailing"):
                decode_message(wire + b"\x00")

    def test_every_single_byte_mutation(self):
        for wire in CANONICAL_FRAMES:
            for position in range(len(wire)):
                for flip in (0x01, 0x80, 0xFF):
                    mutated = bytearray(wire)
                    mutated[position] ^= flip
                    decodes_or_refuses(bytes(mutated))

    @given(messages(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutations_and_cuts_of_any_message(self, message, data):
        wire = bytearray(encode_message(message))
        position = data.draw(st.integers(0, len(wire) - 1))
        with pytest.raises(CodecError):
            decode_message(bytes(wire[:position]))
        wire[position] = data.draw(st.integers(0, 255))
        decodes_or_refuses(bytes(wire))

    @pytest.mark.parametrize("tag", [REAL, FAST_KEY])
    def test_overlong_declaration_refused_before_allocation(self, tag):
        """A file's bytes and a fast signer's secret, each behind its
        form byte, claiming 4 GiB they do not have."""
        if tag == REAL:
            wire = (head("store-request") + varint(0) + CERTIFICATE_BODY
                    + bytes([FAST_KEY]) + varint(0) + varint(0)
                    + bytes([REAL]) + varint(0xFFFF_FFFF) + b"abc")
        else:
            wire = (head("store-request") + varint(0) + CERTIFICATE_BODY
                    + bytes([FAST_KEY]) + varint(0xFFFF_FFFF) + b"abc")
        assert_refused_small(wire)

    @pytest.mark.parametrize("before", [
        bytes([WIRE_VERSION, shape_id("telemetry-scrape")]),
        head("telemetry-snapshot") + varint(0),
        head("leafset-reply"),
        head("join-reply") + varint(0) + varint(0),
        head("join-reply") + varint(0) + varint(0) + varint(1) + varint(0),
        head("store-request") + varint(0) + CERTIFICATE_BODY + bytes([RSA_KEY]),
        head("store-request") + varint(0) + CERTIFICATE_BODY + bytes([FAST_KEY])
        + varint(0),
        SNAPSHOT_HEAD + REGISTRY_ONLY,
        SNAPSHOT_HEAD + REGISTRY_ONLY + varint(1) + varint(1) + b"c",
        SNAPSHOT_HEAD + REGISTRY_ONLY + varint(0) + varint(0) + varint(1)
        + varint(1) + b"h" + varint(0),
        SNAPSHOT_HEAD + REGISTRY_ONLY + varint(0) * 3 + varint(1) + varint(1) + b"h",
        SNAPSHOT_HEAD + LEDGER_ONLY + varint(0) * 4,
    ], ids=["address", "str", "node-list", "rows", "cells", "rsa-modulus",
            "signature", "registry-rows", "label-pairs", "samples", "help-text",
            "top-nodes"])
    def test_every_varint_length_and_count_refuses_4_gib(self, before):
        """Each schema position holding a length or a count, claiming
        4 GiB: refused before anything is allocated."""
        assert_refused_small(before + varint(0xFFFF_FFFF) + b"abc")

    def test_an_11_byte_varint_is_refused(self):
        store_ack = head("store-ack")
        assert decode_message(store_ack + b"\xff" * 9 + b"\x7f" + b"\x01")
        with pytest.raises(CodecError, match="longer than 10 bytes"):
            decode_message(store_ack + b"\xff" * 10 + b"\x01" + b"\x01")
        with pytest.raises(CodecError, match="longer than 10 bytes"):
            decode_message(bytes([WIRE_VERSION, shape_id("announce")])
                           + bytes(16) + b"\x80" * 11 + b"\x00")
        assert VARINT_BYTES == 10

    def test_an_unknown_shape_id_is_refused(self):
        for unknown in range(len(SHAPES), 256):
            with pytest.raises(CodecError, match="unknown shape id"):
                decode_message(bytes([WIRE_VERSION, unknown]) + NODE_HEADER)

    def test_a_zero_trace_id_travels_for_the_edge_to_refuse(self):
        """The wire carries any 26 bytes of traceparent; whether the
        ids are zero is the edge's to judge."""
        zero = "00-" + "0" * 32 + "-" + "cd" * 8 + "-01"
        wire = (head("announce")[:-1] + b"\x01" + bytes(17)
                + bytes.fromhex("cd" * 8) + b"\x01")
        assert encode_message(Message(kind="announce", sender=1,
                                      traceparent=zero)) == wire
        decoded = decode_message(wire)
        assert decoded.traceparent == zero
        assert not well_formed(decoded, {1})
        with pytest.raises(CodecError, match="neither 0 nor 1"):
            decode_message(head("announce")[:-1] + b"\x02")

    def test_count_is_checked_against_the_smallest_element(self):
        """17 bytes remain: room for 2 eight-byte histogram samples (and
        the help count after them), not for 3.  31 bytes remain: room
        for one 16-byte node id, not two."""
        def histogram(count):
            return (SNAPSHOT_HEAD + REGISTRY_ONLY + varint(0) * 2 + varint(1)
                    + varint(1) + b"h" + varint(0) + varint(count)
                    + b"\x3f\xf0" + bytes(6) + b"\x40" + bytes(7) + varint(0))

        [[_, _, samples]] = decode_message(histogram(2)).payload["registry"][2]
        assert samples == [1.0, 2.0]
        with pytest.raises(CodecError, match="3 elements declared"):
            decode_message(histogram(3))
        with pytest.raises(CodecError, match="2 elements declared"):
            decode_message(head("leafset-reply") + varint(2) + bytes(31))


def assert_refused_small(wire):
    tracemalloc.start()
    try:
        with pytest.raises(CodecError, match="declared"):
            decode_message(wire)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
