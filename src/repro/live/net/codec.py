"""Binary codec for live-layer messages (wire format version 1).

The in-process transport hands :class:`~repro.live.transport.Message`
objects across by reference, so payloads could carry anything.  The wire
cannot: everything must serialize.  One frame payload is::

    version (1 byte) | kind | sender | message_id | traceparent | payload

where each of the five header fields is one *tagged value*: a tag byte
followed by that tag's body (every length and count is a 4-byte
big-endian unsigned int; ``docs/PROTOCOLS.md`` has the byte-level table).

====  ===================  ==============================================
tag   value                body
====  ===================  ==============================================
0x00  ``None``             --
0x01  ``False``            --
0x02  ``True``             --
0x03  int in int64 range   8 bytes, signed
0x04  any other int        length + signed bytes (ids, signatures: exact)
0x05  float                8 bytes, IEEE 754
0x06  str                  length + UTF-8
0x07  bytes                length + raw bytes
0x08  list (and tuple)     count + values
0x09  str-keyed dict       count + (key as a str body, value) pairs
0x10  ``SyntheticData``    seed, size -- the description, not the bytes
0x11  ``RealData``         length + raw bytes
0x12  fast ``PublicKey``   length + secret
0x13  RSA ``PublicKey``    n, e
0x14  ``SignedEnvelope``   kind, fields, signer, signature
0x15  ``FileCertificate``  envelope
====  ===================  ==============================================

:data:`WIRE_FORMS` is that table as code, and the only place a tag is
tied to a type: the encode dispatch (by ``type``) and the decode
dispatch (by tag byte) are both built from it, so a tag one side knows
and the other does not cannot be written down.

Anything outside the table raises :class:`CodecError` at *encode* time
-- a new protocol message with an unserializable payload fails loudly in
the sender's test, not as a mysterious decode error on the peer.  The
decoder trusts nothing: every declared length and count is checked
against the bytes that remain before anything is allocated, nesting is
capped at :data:`MAX_DEPTH`, the header fields and the fields of domain
objects are type-checked, trailing bytes are refused, and every such
refusal is a :class:`CodecError`.

Encoding is deterministic -- the same message gives the same bytes --
with dict entries in insertion order, so a receiver iterates a payload
in the order its sender built it, as over the in-process transport.

One normalization is deliberate: **tuples become lists** (the wire has
one sequence form).  The protocols only use tuples as positional pairs
that are iterated, never as dict keys or identity-compared values, so
the normalization is harmless -- and the conformance suite runs the full
insert/lookup protocol over both transports to prove it.

Note on sizes: a :class:`SyntheticData` payload crosses the wire as its
(seed, size) *description*, not its materialized bytes -- that is the
point of synthetic content.  Byte-realistic load (and real-frame ledger
pricing) therefore uses :class:`RealData`, as the load harness does.
"""

from __future__ import annotations

import operator
import struct
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.core.certificates import FileCertificate
from repro.core.files import RealData, SyntheticData
from repro.crypto.keys import PublicKey, _FastPublicKey
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.signatures import SignedEnvelope
from repro.live.transport import Message

#: First byte of every payload: a peer speaking another version, or
#: another format altogether (a JSON document opens with ``{``), is
#: refused on it.
WIRE_VERSION = 1
#: Containers and domain objects may nest this deep below a header
#: field; the deepest payload tier-1 ships (a telemetry snapshot) uses 6.
MAX_DEPTH = 32

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

Put = Callable[[bytes], None]
Write = Callable[[Put, Any, int], None]
Read = Callable[[memoryview, int, int], Tuple[Any, int]]


class CodecError(ValueError):
    """A value cannot be encoded, or a frame cannot be decoded."""


def _check_header(kind: Any, sender: Any, message_id: Any,
                  traceparent: Any, payload: Any) -> None:
    """The typed header, enforced on both sides of the wire: the node
    runtime dispatches on ``kind`` and indexes ``payload`` unguarded."""
    if not (isinstance(kind, str) and isinstance(sender, int)
            and isinstance(message_id, int)
            and (traceparent is None or isinstance(traceparent, str))
            and isinstance(payload, dict)):
        raise CodecError(
            "message header must be (kind str, sender int, message_id int, "
            "traceparent str|None, payload dict), got "
            + ", ".join(type(field).__name__ for field in
                        (kind, sender, message_id, traceparent, payload))
        )


# ---------------------------------------------------------------------- #
# encode side: write(put, value, depth) appends the body after the tag
# ---------------------------------------------------------------------- #


def _write_value(put: Put, value: Any, depth: int) -> None:
    if depth > MAX_DEPTH:
        raise CodecError(f"value nests deeper than {MAX_DEPTH} levels")
    forms = _FORMS_OF.get(type(value))
    if forms is None:
        forms = _inherited_forms(type(value))
    for tag, fits, write in forms:
        if fits is None or fits(value):
            put(tag)
            write(put, value, depth)
            return
    raise CodecError(f"no wire form fits this {type(value).__name__}")


def _inherited_forms(cls: type) -> tuple:
    """Forms of the nearest registered base (a namedtuple, an IntEnum,
    an OrderedDict); a class with none is not serializable."""
    for base in cls.__mro__[1:]:
        if base in _FORMS_OF:
            return _FORMS_OF[base]
    raise CodecError(f"cannot serialize {cls.__name__} on the wire")


def _write_nothing(put: Put, value: Any, depth: int) -> None:
    pass


def _write_int64(put: Put, value: int, depth: int) -> None:
    put(_I64.pack(value))


def _write_bigint(put: Put, value: int, depth: int) -> None:
    # +8, not +7: a signed form needs room for the sign bit.
    _write_raw(put, value.to_bytes((value.bit_length() + 8) // 8, "big",
                                   signed=True), depth)


def _write_float(put: Put, value: float, depth: int) -> None:
    put(_F64.pack(value))


def _write_str(put: Put, value: str, depth: int) -> None:
    _write_raw(put, value.encode("utf-8"), depth)


def _write_raw(put: Put, value: bytes, depth: int) -> None:
    put(_U32.pack(len(value)))
    put(value)


def _write_list(put: Put, value: Any, depth: int) -> None:
    put(_U32.pack(len(value)))
    for item in value:
        _write_value(put, item, depth + 1)


def _write_dict(put: Put, value: dict, depth: int) -> None:
    put(_U32.pack(len(value)))
    for key, item in value.items():
        if not isinstance(key, str):
            raise CodecError(f"non-string dict key on the wire: {key!r}")
        _write_str(put, key, depth)
        _write_value(put, item, depth + 1)


def _write_synthetic(put: Put, value: SyntheticData, depth: int) -> None:
    _write_value(put, value.seed, depth + 1)
    _write_value(put, value.size, depth + 1)


def _write_real(put: Put, value: RealData, depth: int) -> None:
    _write_raw(put, value.to_bytes(), depth)


def _write_fast_key(put: Put, value: PublicKey, depth: int) -> None:
    _write_raw(put, value._impl.secret, depth)


def _write_rsa_key(put: Put, value: PublicKey, depth: int) -> None:
    _write_value(put, value._impl.n, depth + 1)
    _write_value(put, value._impl.e, depth + 1)


def _write_envelope(put: Put, value: SignedEnvelope, depth: int) -> None:
    _write_value(put, value.kind, depth + 1)
    _write_value(put, dict(value.fields), depth + 1)
    _write_value(put, value.signer, depth + 1)
    _write_value(put, value.signature, depth + 1)


def _write_certificate(put: Put, value: FileCertificate, depth: int) -> None:
    _write_value(put, value.envelope, depth + 1)


# ---------------------------------------------------------------------- #
# decode side: read(view, pos, depth) -> (value, pos after the body)
# ---------------------------------------------------------------------- #


def _read_value(view: memoryview, pos: int, depth: int) -> Tuple[Any, int]:
    if depth > MAX_DEPTH:
        raise CodecError(f"value nests deeper than {MAX_DEPTH} levels")
    if pos >= len(view):
        raise CodecError(f"payload ends where a value should start (byte {pos})")
    read = _READERS.get(view[pos])
    if read is None:
        raise CodecError(f"unknown wire tag 0x{view[pos]:02x} at byte {pos}")
    return read(view, pos + 1, depth)


def _read_typed(view: memoryview, pos: int, depth: int,
                expected: type) -> Tuple[Any, int]:
    """One value that a domain object's field requires to be *expected*."""
    value, end = _read_value(view, pos, depth)
    if not isinstance(value, expected):
        raise CodecError(
            f"expected {expected.__name__} at byte {pos}, "
            f"found {type(value).__name__}"
        )
    return value, end


def _read_fixed(view: memoryview, pos: int,
                layout: struct.Struct) -> Tuple[Any, int]:
    end = pos + layout.size
    if end > len(view):
        raise CodecError(
            f"{layout.size} bytes needed at byte {pos}, {len(view) - pos} remain"
        )
    return layout.unpack_from(view, pos)[0], end


def _read_count(view: memoryview, pos: int, unit: int) -> Tuple[int, int]:
    """A declared element count, each element at least *unit* bytes
    long: refused here, before anything is allocated, unless the bytes
    that remain could hold that many."""
    count, start = _read_fixed(view, pos, _U32)
    if count * unit > len(view) - start:
        raise CodecError(
            f"{count} elements declared at byte {pos}, "
            f"{len(view) - start} bytes remain"
        )
    return count, start


def _read_span(view: memoryview, pos: int) -> Tuple[int, int]:
    """``(start, end)`` of a length-prefixed run of bytes, refused
    before it is sliced unless the bytes that remain hold all of it.
    (``_read_count`` with a one-byte unit says the same in three calls;
    as every str, key, id and file passes here, this says it in one:
    decode is a fifth slower the other way.)"""
    start = pos + 4
    if start > len(view):
        raise CodecError(f"payload ends inside the length at byte {pos}")
    end = start + _U32.unpack_from(view, pos)[0]
    if end > len(view):
        raise CodecError(
            f"{end - start} bytes declared at byte {pos}, "
            f"{len(view) - start} remain"
        )
    return start, end


def _constant(value: Any) -> Read:
    return lambda view, pos, depth: (value, pos)


def _read_int64(view: memoryview, pos: int, depth: int) -> Tuple[int, int]:
    return _read_fixed(view, pos, _I64)


def _read_bigint(view: memoryview, pos: int, depth: int) -> Tuple[int, int]:
    start, end = _read_span(view, pos)
    return int.from_bytes(view[start:end], "big", signed=True), end


def _read_float(view: memoryview, pos: int, depth: int) -> Tuple[float, int]:
    return _read_fixed(view, pos, _F64)


def _read_str(view: memoryview, pos: int, depth: int) -> Tuple[str, int]:
    start, end = _read_span(view, pos)
    return str(view[start:end], "utf-8"), end


def _read_raw(view: memoryview, pos: int, depth: int) -> Tuple[bytes, int]:
    start, end = _read_span(view, pos)
    return bytes(view[start:end]), end


def _read_list(view: memoryview, pos: int, depth: int) -> Tuple[list, int]:
    count, pos = _read_count(view, pos, unit=1)  # a value is >= its tag
    items = []
    for _ in range(count):
        item, pos = _read_value(view, pos, depth + 1)
        items.append(item)
    return items, pos


def _read_dict(view: memoryview, pos: int, depth: int) -> Tuple[dict, int]:
    count, pos = _read_count(view, pos, unit=5)  # key length + value tag
    entries: Dict[str, Any] = {}
    for _ in range(count):
        start, end = _read_span(view, pos)
        key = str(view[start:end], "utf-8")
        entries[key], pos = _read_value(view, end, depth + 1)
    if len(entries) != count:
        raise CodecError("dict repeats a key")
    return entries, pos


def _read_synthetic(view: memoryview, pos: int,
                    depth: int) -> Tuple[SyntheticData, int]:
    seed, pos = _read_typed(view, pos, depth + 1, int)
    size, pos = _read_typed(view, pos, depth + 1, int)
    return SyntheticData(seed=seed, size=size), pos


def _read_real(view: memoryview, pos: int, depth: int) -> Tuple[RealData, int]:
    data, pos = _read_raw(view, pos, depth)
    return RealData(data), pos


def _read_fast_key(view: memoryview, pos: int,
                   depth: int) -> Tuple[PublicKey, int]:
    secret, pos = _read_raw(view, pos, depth)
    return PublicKey(_FastPublicKey(secret=secret)), pos


def _read_rsa_key(view: memoryview, pos: int,
                  depth: int) -> Tuple[PublicKey, int]:
    n, pos = _read_typed(view, pos, depth + 1, int)
    e, pos = _read_typed(view, pos, depth + 1, int)
    return PublicKey(RsaPublicKey(n=n, e=e)), pos


def _read_envelope(view: memoryview, pos: int,
                   depth: int) -> Tuple[SignedEnvelope, int]:
    kind, pos = _read_typed(view, pos, depth + 1, str)
    fields, pos = _read_typed(view, pos, depth + 1, dict)
    signer, pos = _read_typed(view, pos, depth + 1, PublicKey)
    signature, pos = _read_typed(view, pos, depth + 1, int)
    return SignedEnvelope(kind=kind, fields=fields, signer=signer,
                          signature=signature), pos


def _read_certificate(view: memoryview, pos: int,
                      depth: int) -> Tuple[FileCertificate, int]:
    envelope, pos = _read_typed(view, pos, depth + 1, SignedEnvelope)
    return FileCertificate(envelope=envelope), pos


# ---------------------------------------------------------------------- #
# the wire table
# ---------------------------------------------------------------------- #


class WireForm(NamedTuple):
    """One row of the wire table: *tag* carries a *type*.  Where one
    type has several forms, the first row (in table order) whose *fits*
    accepts the value is the one written."""

    tag: int
    type: type
    write: Write
    read: Read
    fits: Optional[Callable[[Any], bool]] = None


def _in_int64(value: int) -> bool:
    return -0x8000_0000_0000_0000 <= value <= 0x7FFF_FFFF_FFFF_FFFF


def _backend(cls: type) -> Callable[[PublicKey], bool]:
    return lambda key: type(key._impl) is cls


WIRE_FORMS: Tuple[WireForm, ...] = (
    WireForm(0x00, type(None), _write_nothing, _constant(None)),
    WireForm(0x01, bool, _write_nothing, _constant(False), operator.not_),
    WireForm(0x02, bool, _write_nothing, _constant(True)),
    WireForm(0x03, int, _write_int64, _read_int64, _in_int64),
    WireForm(0x04, int, _write_bigint, _read_bigint),
    WireForm(0x05, float, _write_float, _read_float),
    WireForm(0x06, str, _write_str, _read_str),
    WireForm(0x07, bytes, _write_raw, _read_raw),
    WireForm(0x08, list, _write_list, _read_list),
    WireForm(0x09, dict, _write_dict, _read_dict),
    WireForm(0x10, SyntheticData, _write_synthetic, _read_synthetic),
    WireForm(0x11, RealData, _write_real, _read_real),
    WireForm(0x12, PublicKey, _write_fast_key, _read_fast_key,
             _backend(_FastPublicKey)),
    WireForm(0x13, PublicKey, _write_rsa_key, _read_rsa_key,
             _backend(RsaPublicKey)),
    WireForm(0x14, SignedEnvelope, _write_envelope, _read_envelope),
    WireForm(0x15, FileCertificate, _write_certificate, _read_certificate),
)

_READERS: Dict[int, Read] = {form.tag: form.read for form in WIRE_FORMS}
if len(_READERS) != len(WIRE_FORMS):
    raise RuntimeError("two rows of WIRE_FORMS share a tag")

_FORMS_OF: Dict[type, tuple] = {}
for _form in WIRE_FORMS:
    _FORMS_OF[_form.type] = _FORMS_OF.get(_form.type, ()) + (
        (bytes([_form.tag]), _form.fits, _form.write),
    )
# Tuples normalise to lists: the wire has one sequence form.
_FORMS_OF[tuple] = _FORMS_OF[list]


# ---------------------------------------------------------------------- #
# entry points
# ---------------------------------------------------------------------- #

_HEADER_FIELDS = 5


def encode_message(message: Message) -> bytes:
    """Serialize one message into a frame payload (deterministic:
    identical messages encode to identical bytes)."""
    header = (message.kind, message.sender, message.message_id,
              message.traceparent, message.payload)
    _check_header(*header)
    chunks = [bytes([WIRE_VERSION])]
    put = chunks.append
    for field in header:
        _write_value(put, field, 0)
    return b"".join(chunks)


def decode_message(payload: bytes) -> Message:
    """Parse one frame payload back into a :class:`Message`."""
    view = memoryview(payload)
    if len(view) == 0 or view[0] != WIRE_VERSION:
        raise CodecError(
            f"not a version-{WIRE_VERSION} payload (first byte "
            f"{bytes(view[:1])!r})"
        )
    header = []
    pos = 1
    try:
        for _ in range(_HEADER_FIELDS):
            field, pos = _read_value(view, pos, 0)
            header.append(field)
    except CodecError:
        raise
    except ValueError as exc:
        # Bytes that parse but do not make the value they claim: bad
        # UTF-8, a negative SyntheticData size.
        raise CodecError(f"malformed value on the wire: {exc}") from exc
    if pos != len(view):
        raise CodecError(f"{len(view) - pos} trailing bytes after the payload")
    _check_header(*header)
    kind, sender, message_id, traceparent, body = header
    return Message(kind=kind, sender=sender, payload=body,
                   message_id=message_id, traceparent=traceparent)
