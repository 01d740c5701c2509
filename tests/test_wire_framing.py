"""Property tests for the socket wire format.

Framing first (length-prefixed frames over an arbitrarily-chunked byte
stream): round-trips on randomized payloads, torn reads at *every* byte
boundary, oversized-frame rejection, and garbage-prefix resync.  Then
the message codec: every value the wire table admits must survive
encode/decode (Hypothesis over the whole grammar, and one pinned example
per table row), anything else must fail loudly at encode time, and no
sequence of bytes -- garbage, truncated, mutated, or lying about its own
lengths -- may get anything but a ``CodecError`` out of the decoder.

These are pure unit tests -- no sockets are opened -- so they run in
tier-1 everywhere.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.certificates import FileCertificate
from repro.core.files import RealData, SyntheticData
from repro.core.smartcard import make_uncertified_card
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
from repro.live.net.codec import MAX_DEPTH, WIRE_FORMS, WIRE_VERSION
from repro.live.net.framing import HEADER_BYTES, MAGIC
from repro.live.transport import Message, well_formed


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


def u32(number):
    return number.to_bytes(4, "big")


def int64(number):
    return b"\x03" + number.to_bytes(8, "big", signed=True)


def text(string):
    return b"\x06" + u32(len(string)) + string.encode("utf-8")


def entry(key, tagged_value):
    """One dict entry: the key as a bare str body, then a tagged value."""
    return text(key)[1:] + tagged_value


def wire_message(*entries, kind=text("x")):
    """A payload written by hand, byte for byte as docs/PROTOCOLS.md
    lays it out: version, kind, sender, message_id, traceparent (None)
    and a payload dict of *entries*."""
    return (bytes([WIRE_VERSION]) + kind + int64(1) + int64(0) + b"\x00"
            + b"\x09" + u32(len(entries)) + b"".join(entries))


def _card():
    return make_uncertified_card(
        random.Random(5), usage_quota=1 << 40, backend="insecure_fast"
    )


class TestMessageCodec:
    def test_plain_payload_round_trip(self):
        message = Message(
            kind="route", sender=0xABCDEF,
            payload={"key": 1 << 127, "trail": [1, 2, 3], "purpose": None,
                     "nested": {"flag": True, "rate": 0.5}},
            message_id=42,
            traceparent="00-" + "ab" * 16 + "-" + "cd" * 8 + "-01",
        )
        decoded = decode_message(encode_message(message))
        assert decoded.kind == message.kind
        assert decoded.sender == message.sender
        assert decoded.payload == message.payload
        assert decoded.message_id == 42
        assert decoded.traceparent == message.traceparent

    def test_big_ints_survive(self):
        """nodeIds/fileIds are 128-bit ints, signatures far larger --
        the wire must carry them exactly, no fixed-width truncation."""
        huge = (1 << 512) + 12345
        message = Message(kind="ack", sender=(1 << 128) - 1,
                          payload={"signature": huge})
        assert decode_message(encode_message(message)).payload["signature"] == huge

    def test_tuples_normalize_to_lists(self):
        message = Message(kind="state", sender=1,
                          payload={"rows": [(0, [1, None, 3]), (1, [4])]})
        decoded = decode_message(encode_message(message))
        assert decoded.payload["rows"] == [[0, [1, None, 3]], [1, [4]]]

    def test_subclasses_travel_as_their_registered_base(self):
        import collections
        import enum

        class Colour(enum.IntEnum):
            RED = 7

        pair = collections.namedtuple("pair", "left right")
        message = Message(kind="state", sender=1, payload={
            "enum": Colour.RED, "pair": pair(1, 2),
            "ordered": collections.OrderedDict(b=1, a=2),
        })
        decoded = decode_message(encode_message(message))
        assert decoded.payload == {"enum": 7, "pair": [1, 2],
                                   "ordered": {"b": 1, "a": 2}}
        assert type(decoded.payload["enum"]) is int

    def test_synthetic_and_real_data(self):
        synthetic = SyntheticData(seed=9, size=5000)
        real = RealData(b"\x00\x01binary\xff")
        message = Message(kind="store", sender=1,
                          payload={"a": synthetic, "b": real, "c": None})
        decoded = decode_message(encode_message(message))
        assert decoded.payload["a"] == synthetic
        assert decoded.payload["b"] == real
        assert decoded.payload["c"] is None

    def test_certificate_round_trip_still_verifies(self):
        data = RealData(b"certified content")
        certificate = _card().issue_file_certificate(
            "file", data, 3, salt=7, insertion_date=0
        )
        message = Message(kind="store-request", sender=2,
                          payload={"certificate": certificate, "data": data})
        decoded = decode_message(encode_message(message))
        restored: FileCertificate = decoded.payload["certificate"]
        assert restored == certificate
        assert restored.verify(), "signature must survive the wire"

    def test_rsa_public_key_round_trip(self):
        keypair = generate_keypair(random.Random(11), backend="rsa", bits=256)
        signature = keypair.sign(b"msg")
        message = Message(kind="key", sender=1,
                          payload={"key": keypair.public})
        restored = decode_message(encode_message(message)).payload["key"]
        assert restored == keypair.public
        assert restored.verify(b"msg", signature)

    def test_raw_bytes_round_trip(self):
        message = Message(kind="blob", sender=1,
                          payload={"bytes": bytes(range(256))})
        decoded = decode_message(encode_message(message))
        assert decoded.payload["bytes"] == bytes(range(256))

    def test_unknown_object_fails_at_encode_time(self):
        message = Message(kind="bad", sender=1, payload={"obj": object()})
        with pytest.raises(CodecError):
            encode_message(message)

    def test_non_string_dict_key_rejected(self):
        message = Message(kind="bad", sender=1, payload={"map": {1: "x"}})
        with pytest.raises(CodecError):
            encode_message(message)

    def test_garbage_payload_rejected(self):
        with pytest.raises(CodecError):
            decode_message(b"\xff\xfenot a payload")
        with pytest.raises(CodecError):
            decode_message(b"")
        # The format this one replaced: refused on its first byte.
        with pytest.raises(CodecError):
            decode_message(b'{"kind":"x","sender":1,"payload":{}}')
        # A well-formed value that is not a message: five ints.
        with pytest.raises(CodecError):
            decode_message(bytes([WIRE_VERSION]) + 5 * int64(1))
        # A header cut short after ``kind``.
        with pytest.raises(CodecError):
            decode_message(bytes([WIRE_VERSION]) + text("x"))

    def test_unknown_tag_rejected(self):
        assert 0x7F not in {form.tag for form in WIRE_FORMS}
        with pytest.raises(CodecError, match="unknown wire tag 0x7f"):
            decode_message(wire_message(entry("v", b"\x7f")))

    def test_identical_messages_encode_identically(self):
        def build():
            return Message(kind="route", sender=3,
                           payload={"b": 2, "a": 1, "trail": [5, 6]},
                           message_id=9)

        assert encode_message(build()) == encode_message(build())


# ---------------------------------------------------------------------- #
# the whole value grammar
# ---------------------------------------------------------------------- #

ints = st.integers(min_value=-(1 << 600), max_value=1 << 600)
public_keys = st.one_of(
    st.builds(lambda secret: PublicKey(_FastPublicKey(secret=secret)),
              st.binary(max_size=40)),
    st.builds(lambda n, e: PublicKey(RsaPublicKey(n=n, e=e)),
              st.integers(min_value=3, max_value=1 << 600),
              st.integers(min_value=3, max_value=1 << 17)),
)
plain = st.one_of(st.none(), st.booleans(), ints,
                  st.floats(allow_nan=False), st.text(), st.binary())
envelopes = st.builds(
    SignedEnvelope, kind=st.text(), signer=public_keys, signature=ints,
    fields=st.dictionaries(st.text(), plain, max_size=4),
)
#: One strategy per Python type the wire table carries (the test below
#: holds this to WIRE_FORMS, so a new row cannot go unexercised).
STRATEGY_OF = {
    type(None): st.none(),
    bool: st.booleans(),
    int: ints,
    float: st.floats(allow_nan=False),
    str: st.text(),
    bytes: st.binary(),
    SyntheticData: st.builds(SyntheticData, seed=ints,
                             size=st.integers(min_value=0, max_value=1 << 70)),
    RealData: st.builds(RealData, st.binary()),
    PublicKey: public_keys,
    SignedEnvelope: envelopes,
    FileCertificate: st.builds(FileCertificate, envelope=envelopes),
}
values = st.recursive(
    st.one_of(*STRATEGY_OF.values()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=12,
)
messages = st.builds(
    Message, kind=st.text(), sender=ints, message_id=ints,
    traceparent=st.none() | st.text(),
    payload=st.dictionaries(st.text(), values, max_size=4),
)


def rich_message():
    """One message touching every row of the wire table."""
    keypair = generate_keypair(random.Random(11), backend="rsa", bits=256)
    data = RealData(b"certified content")
    certificate = _card().issue_file_certificate(
        "file", data, 3, salt=7, insertion_date=0
    )
    return Message(
        kind="store-request", sender=(1 << 128) - 1, message_id=42,
        traceparent="00-" + "ab" * 16 + "-" + "cd" * 8 + "-01",
        payload={
            "none": None, "no": False, "yes": True, "small": -5,
            "big": -(1 << 200), "rate": 0.25, "name": "café",
            "blob": b"\x00\xff", "trail": [1, [2, {"deep": []}]],
            "synthetic": SyntheticData(seed=9, size=5000), "data": data,
            "certificate": certificate, "envelope": certificate.envelope,
            "fast": certificate.envelope.signer, "rsa": keypair.public,
        },
    )


def decodes_or_refuses(payload):
    """The decoder's whole contract on untrusted bytes."""
    try:
        assert isinstance(decode_message(payload), Message)
    except CodecError:
        pass


class TestValueGrammar:
    def test_strategies_cover_the_wire_table(self):
        carried = {form.type for form in WIRE_FORMS} - {list, dict}
        assert carried == set(STRATEGY_OF)

    @given(messages)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, message):
        wire = encode_message(message)
        decoded = decode_message(wire)
        assert decoded == message
        assert encode_message(decoded) == wire

    def test_every_row_round_trips_under_its_own_tag(self):
        """One pinned example per table row, found on the wire under
        exactly the tag docs/PROTOCOLS.md gives it."""
        payload = rich_message().payload
        example_of = {
            0x00: None, 0x01: False, 0x02: True, 0x03: -(1 << 63),
            0x04: 1 << 63, 0x05: 0.25, 0x06: "café", 0x07: b"\x00\xff",
            0x08: [1, "two"], 0x09: {"k": None},
            0x10: payload["synthetic"], 0x11: payload["data"],
            0x12: payload["fast"], 0x13: payload["rsa"],
            0x14: payload["envelope"], 0x15: payload["certificate"],
        }
        assert set(example_of) == {form.tag for form in WIRE_FORMS}
        for tag, example in example_of.items():
            wire = encode_message(Message(kind="x", sender=1,
                                          payload={"v": example}))
            assert wire.startswith(wire_message(entry("v", bytes([tag])))), hex(tag)
            assert decode_message(wire).payload == {"v": example}, hex(tag)

    def test_dict_order_is_the_senders(self):
        message = Message(kind="x", sender=1, payload={"b": 2, "a": 1})
        wire = encode_message(message)
        assert wire == wire_message(entry("b", int64(2)), entry("a", int64(1)))
        assert list(decode_message(wire).payload) == ["b", "a"]

    def test_header_is_typed_on_both_sides(self):
        with pytest.raises(CodecError):
            encode_message(Message(kind=7, sender=1))
        with pytest.raises(CodecError):
            decode_message(wire_message(kind=int64(7)))
        # What the payload holds is the kind table's business: the codec
        # carries any value, the socket edge refuses a non-dict.
        odd = decode_message(encode_message(
            Message(kind="announce", sender=1, payload=None)))
        assert odd.payload is None and not well_formed(odd, {1})

    def test_domain_fields_are_typed(self):
        """A certificate whose envelope is an int must not reach a
        handler that will call ``.verify()`` on it."""
        with pytest.raises(CodecError, match="expected SignedEnvelope"):
            decode_message(wire_message(entry("c", b"\x15" + int64(1))))
        with pytest.raises(CodecError):  # SyntheticData of negative size
            decode_message(wire_message(entry("d", b"\x10" + int64(1) + int64(-1))))

    def test_repeated_dict_key_rejected(self):
        with pytest.raises(CodecError, match="repeats a key"):
            decode_message(wire_message(entry("k", b"\x00"), entry("k", b"\x02")))


class TestHostileBytes:
    @given(st.binary(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, noise):
        decodes_or_refuses(noise)
        decodes_or_refuses(bytes([WIRE_VERSION]) + noise)

    def test_every_proper_prefix_is_refused(self):
        wire = encode_message(rich_message())
        for cut in range(len(wire)):
            with pytest.raises(CodecError):
                decode_message(wire[:cut])

    def test_trailing_bytes_refused(self):
        with pytest.raises(CodecError, match="trailing"):
            decode_message(encode_message(rich_message()) + b"\x00")

    def test_every_single_byte_mutation(self):
        wire = encode_message(rich_message())
        for position in range(len(wire)):
            for flip in (0x01, 0x80, 0xFF):
                mutated = bytearray(wire)
                mutated[position] ^= flip
                decodes_or_refuses(bytes(mutated))

    @given(messages, st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutations_and_cuts_of_any_message(self, message, data):
        wire = bytearray(encode_message(message))
        position = data.draw(st.integers(0, len(wire) - 1))
        with pytest.raises(CodecError):
            decode_message(bytes(wire[:position]))
        wire[position] = data.draw(st.integers(0, 255))
        decodes_or_refuses(bytes(wire))

    @pytest.mark.parametrize("tag", [0x04, 0x06, 0x07, 0x08, 0x09, 0x11, 0x12])
    def test_overlong_declaration_refused_before_allocation(self, tag):
        """Every length-prefixed form, claiming 4 GiB it does not have."""
        wire = wire_message(entry("v", bytes([tag]) + u32(0xFFFF_FFFF) + b"abc"))
        tracemalloc.start()
        try:
            with pytest.raises(CodecError, match="declared"):
                decode_message(wire)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_count_is_checked_against_the_smallest_element(self):
        """Three bytes remain: room for 3 list elements, not for 4; and
        for no dict entry at all (4-byte key length + a tag)."""
        assert decode_message(
            wire_message(entry("v", b"\x08" + u32(3) + b"\x00\x01\x02"))
        ).payload == {"v": [None, False, True]}
        with pytest.raises(CodecError, match="4 elements declared"):
            decode_message(wire_message(entry("v", b"\x08" + u32(4) + b"\x00\x01\x02")))
        with pytest.raises(CodecError, match="1 elements declared"):
            decode_message(wire_message(entry("v", b"\x09" + u32(1) + b"\x00\x01\x02")))

    @pytest.mark.parametrize("opener", [b"\x08" + u32(1), b"\x15"],
                             ids=["lists", "certificates"])
    def test_deep_nesting_refused_without_recursion_error(self, opener):
        wire = wire_message(entry("v", opener * 100_000 + b"\x00"))
        with pytest.raises(CodecError, match="nests deeper"):
            decode_message(wire)

    def test_nesting_limit_is_the_same_on_both_sides(self):
        def nested(levels):
            value = []
            for _ in range(levels - 1):
                value = [value]
            return Message(kind="x", sender=1, payload={"v": value})

        wire = encode_message(nested(MAX_DEPTH))
        assert decode_message(wire) == nested(MAX_DEPTH)
        with pytest.raises(CodecError, match="nests deeper"):
            encode_message(nested(MAX_DEPTH + 1))
        # One level more than the encoder would ever write.
        deeper = wire_message(
            entry("v", (b"\x08" + u32(1)) * MAX_DEPTH + b"\x08" + u32(0)))
        with pytest.raises(CodecError, match="nests deeper"):
            decode_message(deeper)
