"""Binary codec for live-layer messages (wire format version 3).

The in-process transport hands :class:`~repro.live.transport.Message`
objects across by reference; the wire carries bytes, and both ends know
:data:`~repro.live.transport.LIVE_KINDS`, so no frame spells out what
the receiver already knows.  One frame payload is::

    version | shape id | sender | message_id | traceparent | fields

* **version** -- one byte, :data:`WIRE_VERSION`; any other is refused.
* **shape id** -- one byte numbering the message's *shape*: each
  non-route kind, and each route purpose, in table order
  (:data:`SHAPES`).  It implies the kind, the purpose and every field.
* **sender** -- 16 raw bytes where the kind's sender is a ``NODE``; a
  length-prefixed int for the two telemetry requests, whose sender is
  any ``ADDRESS`` (a collector lives outside the 128-bit id space).
* **message_id** -- an unsigned varint.
* **traceparent** -- a presence byte, then the header's 26-byte binary
  W3C form (version, trace id, span id, flags), which gives back the
  exact lowercase-hex string.
* **fields** -- the shape's payload fields in schema order: no key
  strings, no tags, no dict header.  A shape with optional fields adds
  one presence byte (bit *i*: the *i*-th optional field follows).

Each field's bytes are its *form*, which the table names for every field
type (``Field.form``); composite forms (``list``, ``maybe``, ``row``)
carry their element types, so every value on the wire -- the telemetry
replies' registry rows included -- is one of a declared shape, and no
reader recurses on input.  :data:`FIELD_FORMS` maps each form name to
its writer and reader, and every shape's writer and reader is derived
from the table once, at import -- there is no second field list here.
A varint is LEB128, at most :data:`VARINT_BYTES` bytes (70 bits); an
``int`` field is zigzag-mapped first; a ``float`` is 8 bytes of IEEE 754
binary64.  ``docs/PROTOCOLS.md`` has the byte-level tables.

Encoding is deterministic -- the same message gives the same bytes -- and
refuses, as :class:`CodecError` in the *sender*, any message whose kind
or purpose is not in the table, whose payload does not carry exactly its
shape's fields, or whose values the forms cannot write (a negative id,
an id past its slot, a bool where an int belongs, a row of the wrong
width, a traceparent not in the W3C layout).  Anything the forms *can*
write is the edge's to judge (:func:`~repro.live.transport.well_formed`:
registration, ranges, a zero trace id).  The decoder trusts nothing:
every declared length and count is checked against the bytes that
remain before anything is allocated, a varint longer than
:data:`VARINT_BYTES` is refused, an unknown shape id or form byte, bad
UTF-8 and trailing bytes are refused, and every such refusal is a
:class:`CodecError`.

Decoded payloads list their fields in schema order, not in the order
the sender built them.  Tuples travel as lists (the wire has one
sequence form).  A :class:`SyntheticData` payload crosses the wire as
its (seed, size) *description*, not its materialized bytes, so
byte-realistic load (and real-frame ledger pricing) uses
:class:`RealData`.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.core.certificates import FILE_CERT_KIND, FileCertificate
from repro.core.files import RealData, SyntheticData
from repro.crypto.keys import PublicKey, _FastPublicKey
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.signatures import SignedEnvelope
from repro.live.transport import (
    CERTIFICATE_FIELDS,
    LIVE_KINDS,
    ROUTE_PURPOSES,
    Field,
    Message,
    Schema,
)

#: First byte of every payload: a peer speaking another version (or
#: another format altogether) is refused on it.
WIRE_VERSION = 3
#: Longest varint: ten 7-bit groups, so 70 bits.
VARINT_BYTES = 10
_VARINT_LIMIT = 1 << (7 * VARINT_BYTES)
#: Form bytes: which kind of file content, which signer backend.
SYNTHETIC, REAL, FAST_KEY, RSA_KEY = 0x10, 0x11, 0x12, 0x13
_TRACEPARENT_BYTES = 26

_F64 = struct.Struct(">d")

Write = Callable[[bytearray, Any], None]
Read = Callable[[bytes, int], Tuple[Any, int]]


class CodecError(ValueError):
    """A value cannot be encoded, or a frame cannot be decoded."""


def _refuse(form: str, value: Any) -> None:
    raise CodecError(f"a {form} field cannot carry {type(value).__name__} "
                     f"{repr(value)[:40]}")


# ---------------------------------------------------------------------- #
# varints and byte runs
# ---------------------------------------------------------------------- #


def _put_varint(out: bytearray, value: int) -> None:
    """LEB128 of a non-negative int the caller has bounded."""
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _take_varint(data: bytes, pos: int) -> Tuple[int, int]:
    byte = data[pos]
    if byte < 0x80:
        return byte, pos + 1
    value = byte & 0x7F
    shift = 7
    for index in range(pos + 1, pos + VARINT_BYTES):
        byte = data[index]
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, index + 1
        shift += 7
    raise CodecError(f"varint longer than {VARINT_BYTES} bytes at byte {pos}")


def _take_span(data: bytes, pos: int) -> Tuple[int, int]:
    """``(start, end)`` of a length-prefixed run of bytes, refused
    before it is sliced unless the bytes that remain hold all of it."""
    length, start = _take_varint(data, pos)
    end = start + length
    if end > len(data):
        raise CodecError(
            f"{length} bytes declared at byte {pos}, {len(data) - start} remain"
        )
    return start, end


def _take_count(data: bytes, pos: int, least: int) -> Tuple[int, int]:
    """A declared element count, each element at least *least* bytes
    long: refused here, before anything is allocated, unless the bytes
    that remain could hold that many."""
    count, start = _take_varint(data, pos)
    if count * least > len(data) - start:
        raise CodecError(
            f"{count} elements declared at byte {pos}, "
            f"{len(data) - start} bytes remain"
        )
    return count, start


def _put_run(out: bytearray, raw: bytes) -> None:
    _put_varint(out, len(raw))
    out += raw


# ---------------------------------------------------------------------- #
# field forms: what each field type of the kind table is on the wire
# ---------------------------------------------------------------------- #


class Form(NamedTuple):
    """How one field type travels: *least* is the fewest bytes a value
    takes, which bounds a declared count before anything is allocated."""

    write: Write
    read: Read
    least: int


def _fixed_int(width: int, form: str) -> Form:
    """A non-negative int in *width* raw big-endian bytes (``to_bytes``
    refuses a negative or wider one: OverflowError)."""
    def write(out: bytearray, value: Any) -> None:
        if type(value) is not int:
            _refuse(form, value)
        out += value.to_bytes(width, "big")

    def read(data: bytes, pos: int) -> Tuple[int, int]:
        end = pos + width
        if end > len(data):
            raise CodecError(
                f"{width} bytes needed at byte {pos}, {len(data) - pos} remain")
        return int.from_bytes(data[pos:end], "big"), end

    return Form(write, read, width)


def _write_uint(out: bytearray, value: Any) -> None:
    if type(value) is not int or not 0 <= value < _VARINT_LIMIT:
        _refuse("uint", value)
    _put_varint(out, value)


def _write_zigzag(out: bytearray, value: Any) -> None:
    if type(value) is not int:
        _refuse("int", value)
    zigzag = value << 1 if value >= 0 else ~value << 1 | 1
    if zigzag >= _VARINT_LIMIT:
        _refuse("int", value)
    _put_varint(out, zigzag)


def _read_zigzag(data: bytes, pos: int) -> Tuple[int, int]:
    zigzag, pos = _take_varint(data, pos)
    return zigzag >> 1 ^ -(zigzag & 1), pos


def _write_bool(out: bytearray, value: Any) -> None:
    if type(value) is not bool:
        _refuse("bool", value)
    out.append(value)


def _read_flag(data: bytes, pos: int) -> Tuple[bool, int]:
    byte = data[pos]
    if byte > 1:
        raise CodecError(f"byte {pos} is 0x{byte:02x}, neither 0 nor 1")
    return byte == 1, pos + 1


def _write_text(out: bytearray, value: Any) -> None:
    if type(value) is not str:
        _refuse("str", value)
    _put_run(out, value.encode("utf-8"))


def _read_text(data: bytes, pos: int) -> Tuple[str, int]:
    start, end = _take_span(data, pos)
    return str(data[start:end], "utf-8"), end


def _write_magnitude(out: bytearray, value: Any) -> None:
    """A non-negative int of any size: varint byte length, then the
    big-endian bytes (signatures, RSA moduli, a collector's address)."""
    if type(value) is not int:
        _refuse("length-prefixed int", value)
    _put_run(out, value.to_bytes((value.bit_length() + 7) // 8, "big"))


def _read_magnitude(data: bytes, pos: int) -> Tuple[int, int]:
    start, end = _take_span(data, pos)
    return int.from_bytes(data[start:end], "big"), end


_ID = _fixed_int(16, "id")


def _write_data(out: bytearray, value: Any) -> None:
    if type(value) is RealData:
        out.append(REAL)
        _put_run(out, value.to_bytes())
    elif type(value) is SyntheticData:
        out.append(SYNTHETIC)
        _ID.write(out, value.seed)
        _write_uint(out, value.size)
    else:
        _refuse("data", value)


def _read_data(data: bytes, pos: int) -> Tuple[Any, int]:
    form = data[pos]
    if form == REAL:
        start, end = _take_span(data, pos + 1)
        return RealData(data[start:end]), end
    if form == SYNTHETIC:
        seed, pos = _ID.read(data, pos + 1)
        size, pos = _take_varint(data, pos)
        return SyntheticData(seed=seed, size=size), pos
    raise CodecError(f"unknown data form 0x{form:02x} at byte {pos}")


def _write_key(out: bytearray, key: Any) -> None:
    impl = key._impl if type(key) is PublicKey else None
    if type(impl) is _FastPublicKey and type(impl.secret) is bytes:
        out.append(FAST_KEY)
        _put_run(out, impl.secret)
    elif type(impl) is RsaPublicKey:
        out.append(RSA_KEY)
        _write_magnitude(out, impl.n)
        _write_magnitude(out, impl.e)
    else:
        _refuse("signer", key)


def _read_key(data: bytes, pos: int) -> Tuple[PublicKey, int]:
    backend = data[pos]
    if backend == FAST_KEY:
        start, end = _take_span(data, pos + 1)
        return PublicKey(_FastPublicKey(secret=data[start:end])), end
    if backend == RSA_KEY:
        n, pos = _read_magnitude(data, pos + 1)
        e, pos = _read_magnitude(data, pos)
        return PublicKey(RsaPublicKey(n=n, e=e)), pos
    raise CodecError(f"unknown signer backend 0x{backend:02x} at byte {pos}")


def _certificate_form() -> Form:
    """The envelope's fields in ``CERTIFICATE_FIELDS`` order, then the
    signer and the signature; the envelope kind is implied."""
    fields = tuple((name, form_of(field))
                   for name, field in CERTIFICATE_FIELDS.required.items())

    def write(out: bytearray, value: Any) -> None:
        envelope = value.envelope if type(value) is FileCertificate else None
        if (envelope is None or envelope.kind != FILE_CERT_KIND
                or len(envelope.fields) != len(fields)):
            _refuse("certificate", value)
        signed = envelope.fields
        for name, form in fields:
            form.write(out, signed[name])
        _write_key(out, envelope.signer)
        _write_magnitude(out, envelope.signature)

    def read(data: bytes, pos: int) -> Tuple[FileCertificate, int]:
        signed = {}
        for name, form in fields:
            signed[name], pos = form.read(data, pos)
        signer, pos = _read_key(data, pos)
        signature, pos = _read_magnitude(data, pos)
        return FileCertificate(SignedEnvelope(
            kind=FILE_CERT_KIND, fields=signed, signer=signer,
            signature=signature)), pos

    return Form(write, read, sum(form.least for _, form in fields) + 2)


def _list_form(item: Form) -> Form:
    write_item, read_item, least = item

    def write(out: bytearray, value: Any) -> None:
        if type(value) is not list and type(value) is not tuple:
            _refuse("list", value)
        _put_varint(out, len(value))
        for entry in value:
            write_item(out, entry)

    def read(data: bytes, pos: int) -> Tuple[list, int]:
        count, pos = _take_count(data, pos, least)
        entries = []
        for _ in range(count):
            entry, pos = read_item(data, pos)
            entries.append(entry)
        return entries, pos

    return Form(write, read, 1)


def _maybe_form(item: Form) -> Form:
    write_item, read_item, _ = item

    def write(out: bytearray, value: Any) -> None:
        if value is None:
            out.append(0)
        else:
            out.append(1)
            write_item(out, value)

    def read(data: bytes, pos: int) -> Tuple[Any, int]:
        present, pos = _read_flag(data, pos)
        return read_item(data, pos) if present else (None, pos)

    return Form(write, read, 1)


def _row_form(*items: Form) -> Form:
    """A fixed record: each of its values by its own form, in order."""
    width = len(items)

    def write(out: bytearray, value: Any) -> None:
        if type(value) not in (list, tuple) or len(value) != width:
            _refuse("row", value)
        for item, entry in zip(items, value):
            item.write(out, entry)

    def read(data: bytes, pos: int) -> Tuple[list, int]:
        entries = []
        for item in items:
            entry, pos = item.read(data, pos)
            entries.append(entry)
        return entries, pos

    return Form(write, read, sum(item.least for item in items))


def _write_float(out: bytearray, value: Any) -> None:
    if type(value) is not float:
        _refuse("float", value)
    out += _F64.pack(value)


def _read_float(data: bytes, pos: int) -> Tuple[float, int]:
    end = pos + _F64.size
    if end > len(data):
        raise CodecError(f"{_F64.size} bytes needed at byte {pos}, "
                         f"{len(data) - pos} remain")
    return _F64.unpack_from(data, pos)[0], end


#: Every form a field type may name, called with the forms of its items.
FIELD_FORMS: Dict[str, Callable[..., Form]] = {
    "id": lambda: _ID,
    "file-id": lambda: _fixed_int(20, "file-id"),
    "int": lambda: Form(_write_zigzag, _read_zigzag, 1),
    "uint": lambda: Form(_write_uint, _take_varint, 1),
    "bool": lambda: Form(_write_bool, _read_flag, 1),
    "float": lambda: Form(_write_float, _read_float, _F64.size),
    "str": lambda: Form(_write_text, _read_text, 1),
    "address": lambda: Form(_write_magnitude, _read_magnitude, 1),
    "data": lambda: Form(_write_data, _read_data, 2),
    "certificate": _certificate_form,
    "list": _list_form,
    "maybe": _maybe_form,
    "row": _row_form,
}


def form_of(field: Field) -> Form:
    """The writer and reader of one field type of the kind table."""
    build = FIELD_FORMS.get(field.form)
    if build is None:
        raise RuntimeError(f"no wire form is named {field.form!r}")
    return build(*(form_of(item) for item in field.items))


# ---------------------------------------------------------------------- #
# shapes: one per non-route kind and per route purpose, in table order
# ---------------------------------------------------------------------- #


class Shape(NamedTuple):
    """One numbered row of the kind table, as the codec runs it.
    *required* and *optional* hold ``(name, write, read)`` in schema
    order; a route's ``purpose`` is required but implied, never written."""

    id: int
    kind: str
    purpose: Optional[str]
    head: bytes
    sender: Form
    required: Tuple[Tuple[str, Write, Read], ...]
    optional: Tuple[Tuple[str, Write, Read], ...]


def _write_implied(out: bytearray, value: Any) -> None:
    """The shape was found by this value: nothing to write."""


def _shape(number: int, kind: str, sender: Field, schema: Schema,
           purpose: Optional[str]) -> Shape:
    if len(schema.optional) > 8:
        raise RuntimeError(f"{kind}: one presence byte holds 8 optional fields")

    def fields(table: Dict[str, Field]) -> tuple:
        rows = []
        for name, field in table.items():
            if purpose is not None and name == "purpose":
                rows.append((name, _write_implied,
                             lambda data, pos: (purpose, pos)))
            else:
                form = form_of(field)
                rows.append((name, form.write, form.read))
        return tuple(rows)

    return Shape(number, kind, purpose, bytes([WIRE_VERSION, number]),
                 form_of(sender), fields(schema.required),
                 fields(schema.optional))


def _shapes() -> Tuple[Shape, ...]:
    shapes = []
    for kind, row in LIVE_KINDS.items():
        if row.payload is None:
            for purpose, schema in ROUTE_PURPOSES.items():
                shapes.append(_shape(len(shapes), kind, row.sender, schema, purpose))
        else:
            shapes.append(_shape(len(shapes), kind, row.sender, row.payload, None))
    return tuple(shapes)


#: Shape id -> shape: the 14 non-route kinds and the 4 route purposes.
SHAPES: Tuple[Shape, ...] = _shapes()
_SHAPE_OF_KIND = {shape.kind: shape for shape in SHAPES if shape.purpose is None}
_SHAPE_OF_PURPOSE = {shape.purpose: shape for shape in SHAPES
                     if shape.purpose is not None}


# ---------------------------------------------------------------------- #
# the traceparent header
# ---------------------------------------------------------------------- #


def _traceparent_text(raw: bytes) -> str:
    digits = raw.hex()
    return f"{digits[:2]}-{digits[2:34]}-{digits[34:50]}-{digits[50:]}"


def _traceparent_bytes(header: Any) -> bytes:
    """The 26 bytes a W3C ``traceparent`` is made of; refused unless
    they give back exactly *header* (lowercase hex, four fields)."""
    try:
        raw = bytes.fromhex(header.replace("-", ""))
    except (AttributeError, ValueError):
        raw = b""
    if len(raw) != _TRACEPARENT_BYTES or _traceparent_text(raw) != header:
        raise CodecError(f"traceparent {repr(header)[:60]} is not in the W3C layout")
    return raw


# ---------------------------------------------------------------------- #
# entry points
# ---------------------------------------------------------------------- #


def encode_message(message: Message) -> bytes:
    """Serialize one message into a frame payload (deterministic:
    identical messages encode to identical bytes)."""
    payload = message.payload
    if type(payload) is not dict:
        raise CodecError(f"a payload is a dict, not {type(payload).__name__}")
    kind = message.kind
    if kind == "route":
        purpose = payload.get("purpose")
        shape = _SHAPE_OF_PURPOSE.get(purpose) if type(purpose) is str else None
    else:
        shape = _SHAPE_OF_KIND.get(kind) if type(kind) is str else None
    if shape is None:
        raise CodecError(f"no shape in the kind table for kind {kind!r}")
    out = bytearray(shape.head)
    try:
        shape.sender.write(out, message.sender)
        _write_uint(out, message.message_id)
        if message.traceparent is None:
            out.append(0)
        else:
            out.append(1)
            out += _traceparent_bytes(message.traceparent)
        for name, write, _ in shape.required:
            write(out, payload[name])
        written = len(shape.required)
        if shape.optional:
            mark = len(out)
            out.append(0)
            for bit, (name, write, _) in enumerate(shape.optional):
                if name in payload:
                    out[mark] |= 1 << bit
                    write(out, payload[name])
                    written += 1
    except KeyError as missing:
        raise CodecError(f"{kind} payload lacks field {missing}") from None
    except CodecError:
        raise
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        # A value the forms cannot write: an envelope that is not one,
        # a str that is not UTF-8.
        raise CodecError(f"{kind} payload: {exc}") from exc
    if written != len(payload):
        raise CodecError(f"{kind} payload carries fields its shape has not: "
                         f"{sorted(map(str, payload))}")
    return bytes(out)


def decode_message(payload: bytes) -> Message:
    """Parse one frame payload back into a :class:`Message`."""
    data = payload if type(payload) is bytes else bytes(payload)
    if len(data) < 2 or data[0] != WIRE_VERSION:
        raise CodecError(
            f"not a version-{WIRE_VERSION} payload (first bytes {data[:2]!r})"
        )
    if data[1] >= len(SHAPES):
        raise CodecError(f"unknown shape id {data[1]}")
    shape = SHAPES[data[1]]
    try:
        sender, pos = shape.sender.read(data, 2)
        message_id, pos = _take_varint(data, pos)
        traced, pos = _read_flag(data, pos)
        traceparent = None
        if traced:
            end = pos + _TRACEPARENT_BYTES
            if end > len(data):
                raise CodecError(f"payload ends inside the traceparent at byte {pos}")
            traceparent = _traceparent_text(data[pos:end])
            pos = end
        body: Dict[str, Any] = {}
        for name, _, read in shape.required:
            body[name], pos = read(data, pos)
        if shape.optional:
            present = data[pos]
            if present >> len(shape.optional):
                raise CodecError(f"presence byte 0x{present:02x} at byte {pos} "
                                 f"marks fields {shape.kind} has not")
            pos += 1
            for bit, (name, _, read) in enumerate(shape.optional):
                if present >> bit & 1:
                    body[name], pos = read(data, pos)
    except IndexError:
        raise CodecError("payload ends inside a value") from None
    except CodecError:
        raise
    except ValueError as exc:
        # Bytes that parse but do not make the value they claim: bad UTF-8.
        raise CodecError(f"malformed value on the wire: {exc}") from exc
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after the payload")
    return Message(kind=shape.kind, sender=sender, payload=body,
                   message_id=message_id, traceparent=traceparent)
