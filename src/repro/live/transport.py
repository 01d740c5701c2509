"""Live transports: the ``send()`` contract and the in-process baseline.

The live layer speaks to its peers through a *transport* -- an object
with one asynchronous delivery primitive (:meth:`TransportBase.send`)
plus registration, liveness marking and mailbox receive.  Two
implementations share the contract:

* :class:`InProcessTransport` (here) -- mailbox-per-node queues with
  optional modelled latency: the deterministic baseline every
  conformance test compares against;
* :class:`repro.live.net.SocketTransport` -- real asyncio TCP over
  localhost with length-prefixed binary frames (``live/net/codec.py``),
  a per-peer connection pool and bounded send queues (backpressure).

``send`` returns a typed :class:`SendResult`, not a bare bool, because
three different failures used to collapse into one falsy value:

* **dead peer** (connection refused / marked dead): the sender has
  *discovered a death* and should forget the peer;
* **timeout** (send queue full under backpressure, or the wire stalled):
  the peer may be alive but slow -- forgetting it would amplify load
  spikes into false failure cascades;
* **injected drop** (a :class:`~repro.faults.plan.FaultPlan` swallowed
  the message): the send *appears* to succeed -- only a missing reply
  reveals it, which is what the retry/backoff layer handles.

``SendResult`` is truthy exactly when the message was accepted towards
the wire (delivered, or silently dropped by an injected fault), so
pre-existing ``if not await send(...)`` call sites keep their meaning;
callers that need the distinction read ``.status`` / ``.peer_dead`` /
``.timed_out``.

A :class:`FaultPlan` can be attached (construction or later, via the
public ``faults`` attribute) to inject message-level chaos: drops,
duplicates, extra delay, and reorders.  Every message carries an
optional ``traceparent`` header, a :class:`TraceContext` value; when a
``TraceCollector`` is attached the transport records a point span for
each fault it injects on a traced message.  When a ``CostLedger`` is
attached every send is charged -- the in-process transport prices by
the wire-size model (real payload bytes for data-bearing messages), the
socket transport by the *actual* encoded frame length.

:data:`LIVE_KINDS` is the one statement of what each live message
carries: the socket codec writes each kind from it, and the socket
transport refuses, at its edge, every decoded frame that does not fit
it (:func:`well_formed`).
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Container, Dict, NamedTuple, Optional, Set, Tuple

from repro.core.certificates import FileCertificate
from repro.core.files import RealData, SyntheticData
from repro.core.ids import SALT_BITS
from repro.crypto.hashing import FILE_ID_BITS, NODE_ID_BITS
from repro.netsim.latency import LatencyModel
from repro.obs.cost_model import ID_BYTES, WIRE_HEADER_BYTES
from repro.obs.trace_context import TraceCollector, TraceContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import MessageFault

# SendResult.status values.  DELIVERED/DROPPED are "accepted" (truthy);
# DEAD/UNKNOWN mean the sender just discovered the peer is unreachable;
# TIMEOUT means the wire did not accept the message in time -- the peer
# may be alive (backpressure), so it must NOT be treated as a death.
SEND_DELIVERED = "delivered"
SEND_DROPPED = "injected-drop"
SEND_DEAD = "dead-peer"
SEND_UNKNOWN = "unknown-peer"
SEND_TIMEOUT = "timeout"


@dataclass(frozen=True)
class SendResult:
    """The typed outcome of one :meth:`TransportBase.send` call."""

    status: str
    detail: str = ""

    @property
    def accepted(self) -> bool:
        """The message went towards the wire (even if a fault ate it)."""
        return self.status in (SEND_DELIVERED, SEND_DROPPED)

    @property
    def peer_dead(self) -> bool:
        """The peer is known unreachable: forget it and repair."""
        return self.status in (SEND_DEAD, SEND_UNKNOWN)

    @property
    def timed_out(self) -> bool:
        """The wire stalled (backpressure); liveness is *unknown*."""
        return self.status == SEND_TIMEOUT

    def __bool__(self) -> bool:
        return self.accepted


# Pre-built results for the hot path (SendResult is frozen, so sharing
# instances is safe); sites with a useful detail build their own.
RESULT_DELIVERED = SendResult(SEND_DELIVERED)
RESULT_DROPPED = SendResult(SEND_DROPPED)
RESULT_DEAD = SendResult(SEND_DEAD)
RESULT_UNKNOWN = SendResult(SEND_UNKNOWN)
RESULT_TIMEOUT = SendResult(SEND_TIMEOUT)


@dataclass
class Message:
    """One message on the wire.

    The payload is a value: no node changes it after sending, so a
    message delivered twice reads the same both times.  What each kind
    carries is written once, in :data:`LIVE_KINDS`; the trace context
    travels only in the ``traceparent`` header, never in the payload.
    """

    kind: str
    sender: int
    payload: dict = field(default_factory=dict)
    message_id: int = 0
    traceparent: Optional[TraceContext] = None

    def wire_bytes(self, model) -> int:
        """Estimated serialized size under a cost model.

        Data-bearing messages (store-request, lookup-result) are priced
        from their *actual* payload bytes; a data slot that is present
        but empty (a not-found lookup result) costs only the envelope.
        Everything else takes the model's per-kind estimate.
        """
        data = self.payload.get("data") if self.payload else None
        if data is not None:
            length = data.size if hasattr(data, "size") else len(data)
            return WIRE_HEADER_BYTES + ID_BYTES + length
        if self.payload and "data" in self.payload:
            return WIRE_HEADER_BYTES + ID_BYTES
        return model.bytes_of(self.kind)


# ---------------------------------------------------------------------- #
# the live kinds: what each message may carry, checked at the socket edge
# ---------------------------------------------------------------------- #

class Field(NamedTuple):
    """A field type.  ``fits(value, registered)`` says whether a value
    belongs to it, where *registered* holds every address with a
    mailbox; types are exact (a bool is no int).  *form* names how the
    wire writes it (``live/net/codec.py`` derives each kind's writer and
    reader from these), and *items* are the field types a composite form
    is built from: a list's element, a maybe's value, a row's fields."""

    fits: Callable[[Any, Container], bool]
    form: str
    items: Tuple["Field", ...] = ()


def _typed(cls: type, form: str) -> Field:
    def fits(value: Any, registered: Container) -> bool:
        return type(value) is cls
    return Field(fits, form)


def _below(limit: int, form: str) -> Field:
    def fits(value: Any, registered: Container) -> bool:
        return type(value) is int and 0 <= value < limit
    return Field(fits, form)


def _list_of(item: Field) -> Field:
    item_fits = item.fits

    def fits(value: Any, registered: Container) -> bool:
        if type(value) is not list:
            return False
        for entry in value:
            if not item_fits(entry, registered):
                return False
        return True
    return Field(fits, "list", (item,))


def _maybe(field: Field) -> Field:
    field_fits = field.fits

    def fits(value: Any, registered: Container) -> bool:
        return value is None or field_fits(value, registered)
    return Field(fits, "maybe", (field,))


def _row_of(*items: Field) -> Field:
    """A fixed record: a list of exactly ``len(items)`` values, the
    *i*-th of field type ``items[i]``."""
    width = len(items)

    def fits(value: Any, registered: Container) -> bool:
        if type(value) is not list or len(value) != width:
            return False
        for item, entry in zip(items, value):
            if not item.fits(entry, registered):
                return False
        return True
    return Field(fits, "row", items)


BOOL, STR = _typed(bool, "bool"), _typed(str, "str")
#: Any IEEE 754 binary64 value (a gauge level, a histogram sample).
FLOAT = _typed(float, "float")
_ID_LIMIT = 1 << NODE_ID_BITS
#: A routed key; node ids share its 128-bit space.
ID = _below(_ID_LIMIT, "id")
#: FileIds and content hashes: 160 bits.
FILE_ID = _below(1 << FILE_ID_BITS, "file-id")


def _int(value: Any, registered: Container) -> bool:
    return type(value) is int and -(1 << 64) < value < 1 << 64


#: At most 64 bits either side of zero, so ``str()`` of it (seeds,
#: signed fields, span exports) never meets the digit limit.
INT = Field(_int, "int")


def _node(value: Any, registered: Container) -> bool:
    return type(value) is int and 0 <= value < _ID_LIMIT and value in registered


def _address(value: Any, registered: Container) -> bool:
    return type(value) is int and value in registered


#: A node id: in the id space and naming a registered address, so the
#: topology can measure its distance.
NODE = Field(_node, "id")
#: Any registered address; a collector's lies outside the id space.
ADDRESS = Field(_address, "address")
NODES = _list_of(NODE)

#: One routing-table row a join route collected: ``[index, cells]``.
ROW = _row_of(INT, _list_of(_maybe(NODE)))
ROWS = _list_of(ROW)


def _data(value: Any, registered: Container) -> bool:
    if type(value) is SyntheticData:
        return 0 <= value.seed < 1 << 128 and value.size < 1 << 64
    return type(value) is RealData


#: File content whose hash can be taken: raw bytes, or a synthetic
#: description with a 128-bit seed and a 64-bit size.
DATA = Field(_data, "data")


class Schema(NamedTuple):
    """A payload's fields: those it must carry, and those it may.  The
    order written here is the order fields travel (and are decoded) in."""

    required: Dict[str, Field]
    optional: Dict[str, Field] = {}

    def fits(self, payload: dict, registered: Container) -> bool:
        present = 0
        for name, value in payload.items():
            field = self.required.get(name)
            if field is None:
                field = self.optional.get(name)
                if field is None:
                    return False
            else:
                present += 1
            if not field.fits(value, registered):
                return False
        return present == len(self.required)


#: The signed fields of a file certificate's envelope: what
#: ``FileCertificate`` reads, typed so that ``verify()`` can re-derive
#: the fileId (the salt must fit its 64 bits) without raising.
CERTIFICATE_FIELDS = Schema({
    "name": STR, "file_id": FILE_ID, "content_hash": FILE_ID,
    "size": _below(1 << 64, "uint"), "k": INT,
    "salt": _below(1 << SALT_BITS, "uint"), "date": INT,
})


def _certificate(value: Any, registered: Container) -> bool:
    return (type(value) is FileCertificate
            and CERTIFICATE_FIELDS.fits(value.envelope.fields, registered))


CERTIFICATE = Field(_certificate, "certificate")

_ROUTE = {"key": ID, "purpose": STR, "trail": NODES}
_RETRY = {"randomized_seed": INT}

#: What a ``route`` carries, by its ``purpose``.
ROUTE_PURPOSES: Dict[str, Schema] = {
    "lookup": Schema({**_ROUTE, "origin": NODE, "request_id": INT}, _RETRY),
    "join": Schema({**_ROUTE, "origin": NODE, "collect_rows": ROWS,
                    "contact_neighborhood": NODES}),
    "past-insert": Schema({**_ROUTE, "client": NODE, "request_id": INT,
                           "certificate": CERTIFICATE, "data": DATA}, _RETRY),
    "past-lookup": Schema({**_ROUTE, "client": NODE, "request_id": INT,
                           "file_id": FILE_ID}, _RETRY),
}


class LiveKind(NamedTuple):
    """Who may send a kind, and its payload (None: by route purpose)."""

    sender: Field
    payload: Optional[Schema]


_NODE_REPLY = {"request_id": INT, "node": STR}
#: A node's structural state, as both telemetry replies carry it ...
_STATE = {"joined": BOOL, "known_nodes": INT, "leaf_set": INT,
          "mailbox_depth": INT}
#: ... and its file store's, where it has one.
_STORE = {"store_files": INT, "store_bytes": INT}
_LABELS = _list_of(_row_of(STR, STR))
#: A registry export (``MetricsRegistry.export``): counter, gauge and
#: histogram rows of (name, label pairs, value), then (name, HELP) pairs.
REGISTRY = _row_of(
    _list_of(_row_of(STR, _LABELS, INT)),
    _list_of(_row_of(STR, _LABELS, FLOAT)),
    _list_of(_row_of(STR, _LABELS, _list_of(FLOAT))),
    _list_of(_row_of(STR, STR)),
)
#: A ledger summary (``CostLedger.summary_row``): total messages and
#: bytes, (category, bytes) pairs, unpriced messages, and the costliest
#: senders as (address, bytes) pairs.
LEDGER = _row_of(INT, INT, _list_of(_row_of(STR, INT)), INT,
                 _list_of(_row_of(ADDRESS, INT)))
#: The keys of :meth:`TransportBase.wire_stats`, in the order a health
#: report's ``wire`` row carries their values; the last three only a
#: socket transport has (None in the row where they are absent).
WIRE_STATS = ("transport", "endpoints", "links", "poisoned_connections",
              "resynced_bytes", "send_queue_depth", "in_flight",
              "sends_timed_out", "messages_sent", "messages_dropped",
              "bytes_sent", "frames_delivered", "frames_discarded")
WIRE = _row_of(STR, *(INT,) * 9, *(_maybe(INT),) * 3)

#: Every live kind, written once.  The wire codec is generated from it
#: (table order numbers the shapes; schema order is field order), and
#: the socket transport checks each decoded frame against it
#: (:func:`well_formed`) before any mailbox sees it, so handlers index
#: payloads without guards.
LIVE_KINDS: Dict[str, LiveKind] = {
    "route": LiveKind(NODE, None),
    "route-result": LiveKind(NODE, Schema(
        {"request_id": INT, "path": NODES, "key": ID})),
    "join-request": LiveKind(NODE, Schema({"joiner": NODE})),
    "join-reply": LiveKind(NODE, Schema(
        {"leaf_set": NODES, "neighborhood": NODES,
         "rows": ROWS, "trail": NODES})),
    "announce": LiveKind(NODE, Schema({})),
    "leafset-request": LiveKind(NODE, Schema({})),
    "leafset-reply": LiveKind(NODE, Schema({"members": NODES})),
    "store-request": LiveKind(NODE, Schema(
        {"request_id": INT, "certificate": CERTIFICATE, "data": DATA})),
    "store-ack": LiveKind(NODE, Schema({"request_id": INT, "ok": BOOL})),
    "insert-result": LiveKind(NODE, Schema(
        {"request_id": INT, "success": BOOL, "holders": NODES}, {"reason": STR})),
    "lookup-result": LiveKind(NODE, Schema(
        {"request_id": INT, "certificate": _maybe(CERTIFICATE),
         "data": _maybe(DATA), "serving_node": NODE})),
    "telemetry-scrape": LiveKind(ADDRESS, Schema({"request_id": INT})),
    "health-probe": LiveKind(ADDRESS, Schema({"request_id": INT})),
    "telemetry-snapshot": LiveKind(NODE, Schema(
        {**_NODE_REPLY, **_STATE},
        {**_STORE, "registry": REGISTRY, "ledger": LEDGER})),
    "health-report": LiveKind(NODE, Schema(
        {**_NODE_REPLY, **_STATE, "healthy": BOOL, "running": BOOL,
         "mailbox_headroom": BOOL, "mailbox_limit": INT, "wire": WIRE},
        _STORE)),
}


def well_formed(message: Message, registered: Container) -> bool:
    """Whether *message* fits its row of :data:`LIVE_KINDS`: a known
    kind from an allowed sender, a trace context with nonzero ids (or
    none), and a payload of exactly the listed fields, each of its type."""
    row = LIVE_KINDS.get(message.kind)
    payload = message.payload
    if (row is None or type(payload) is not dict
            or not row.sender.fits(message.sender, registered)):
        return False
    ctx = message.traceparent
    if ctx is not None and (type(ctx) is not TraceContext or not ctx.trace_id.strip("0")
                            or not ctx.span_id.strip("0")):
        return False
    schema = row.payload
    if schema is None:
        purpose = payload.get("purpose")
        schema = ROUTE_PURPOSES.get(purpose) if type(purpose) is str else None
    return schema is not None and schema.fits(payload, registered)


class TransportBase:
    """Shared liveness/fault/observability plumbing for live transports.

    Subclasses implement :meth:`send` as sizing, the shared front half
    (:meth:`_admit`) and their own hand-off; everything else --
    registration bookkeeping, the dead set, fault tracing, counters, the
    mailbox receive side -- is common.  Both shipped transports deliver
    into per-address ``asyncio.Queue`` mailboxes, so ``receive`` lives
    here.
    """

    def __init__(self, faults=None) -> None:
        self._mailboxes: Dict[int, asyncio.Queue] = {}
        self._dead: Set[int] = set()
        self.faults = faults
        # Optional TraceCollector: injected faults on traced messages
        # are recorded as point spans under the message's context.
        self.traces: Optional[TraceCollector] = None
        # Optional CostLedger (the cluster wires its observer's in): the
        # transport is the one funnel every live message crosses, so
        # charging here prices node, client and gossip traffic uniformly
        # -- including the extra wire copy of an injected duplicate.
        self.ledger = None
        self._sequence = itertools.count(1)
        self.messages_sent = 0
        self.messages_dropped = 0
        self.faults_dropped = 0
        self.faults_duplicated = 0
        self.faults_reordered = 0
        self.faults_delayed = 0

    # ------------------------------------------------------------------ #
    # registration and liveness
    # ------------------------------------------------------------------ #

    def register(self, address: int) -> asyncio.Queue:
        """Create the mailbox for a new node."""
        if address in self._mailboxes:
            raise ValueError(f"address {address} already registered")
        queue = self._make_mailbox()
        self._mailboxes[address] = queue
        self._dead.discard(address)
        return queue

    def _make_mailbox(self) -> asyncio.Queue:
        return asyncio.Queue()

    def mark_dead(self, address: int) -> None:
        """Future sends to *address* fail (the node stops responding)."""
        self._dead.add(address)

    def mark_alive(self, address: int) -> None:
        self._dead.discard(address)

    def is_dead(self, address: int) -> bool:
        return address in self._dead

    # ------------------------------------------------------------------ #
    # contract
    # ------------------------------------------------------------------ #

    async def send(self, destination: int, message: Message) -> SendResult:
        raise NotImplementedError

    async def receive(self, address: int, timeout: Optional[float] = None) -> Optional[Message]:
        """Next message for *address*, or None on timeout."""
        queue = self._mailboxes[address]
        if timeout is None:
            return await queue.get()
        try:
            return await asyncio.wait_for(queue.get(), timeout)
        except asyncio.TimeoutError:
            return None

    def close_mailbox(self, address: int) -> None:
        """Wake *address*'s receive loop with the ``None`` sentinel.

        Shutdown is local-only: the sentinel is not a :class:`Message`,
        so no frame a peer can write ever stops a node.  A full bounded
        mailbox keeps its backlog; the caller's cancel path covers it.
        """
        try:
            self._mailboxes[address].put_nowait(None)
        except asyncio.QueueFull:
            pass

    def idle(self) -> bool:
        """No undelivered traffic anywhere the transport can see.

        The cluster's quiesce loop polls this between settle checks;
        transports with genuinely in-flight bytes (socket buffers, send
        queues) extend it so "every mailbox is empty" is not mistaken
        for "the wire is silent".
        """
        return all(queue.empty() for queue in self._mailboxes.values())

    async def aclose(self) -> None:
        """Release transport resources (servers, connections).  The
        in-process baseline holds none; the socket transport overrides."""

    # ------------------------------------------------------------------ #
    # wire observability
    # ------------------------------------------------------------------ #

    def mailbox_depth(self, address: int) -> int:
        """Undelivered messages waiting in one node's mailbox."""
        queue = self._mailboxes.get(address)
        return queue.qsize() if queue is not None else 0

    def mailbox_backlog(self) -> int:
        """Undelivered messages across every mailbox."""
        return sum(queue.qsize() for queue in self._mailboxes.values())

    def mailbox_capacity(self) -> int:
        """Per-mailbox bound; 0 means unbounded (the in-process default)."""
        return 0

    def wire_stats(self) -> dict:
        """A flat, plain-JSON description of the transport's wire state.

        The base transport has no physical wire, so its socket-specific
        fields are structurally present but zero -- both transports
        publish the *same* gauge families, which is what keeps the
        cross-transport federated snapshots comparable.  The socket's
        own counters (the last three of :data:`WIRE_STATS`) are absent
        here, not zero: their absence is how a reader tells the two
        transports apart.
        """
        return {
            "transport": type(self).__name__,
            "endpoints": len(self._mailboxes),
            "links": 0,
            "poisoned_connections": 0,
            "resynced_bytes": 0,
            "send_queue_depth": 0,
            "in_flight": 0,
            "sends_timed_out": 0,
            "messages_sent": self.messages_sent,
            "messages_dropped": self.messages_dropped,
        }

    def publish_wire_gauges(self, metrics) -> dict:
        """Mirror the wire state into registry gauges (satellite of the
        health probe: probes and scrapes read the same numbers through
        the normal snapshot path instead of private attributes)."""
        stats = self.wire_stats()
        metrics.gauge("wire.resynced_bytes").set(float(stats["resynced_bytes"]))
        metrics.gauge("wire.send_queue_depth").set(
            float(stats["send_queue_depth"])
        )
        metrics.gauge("wire.in_flight").set(float(stats["in_flight"]))
        metrics.gauge("wire.mailbox_backlog").set(float(self.mailbox_backlog()))
        return stats

    # ------------------------------------------------------------------ #
    # the send front-half (shared by every transport's ``send``)
    # ------------------------------------------------------------------ #

    def _charge(self, message: Message, size: int) -> None:
        """Charge one wire copy of *message* to its sender.  The sender
        spends the bytes whether or not the destination answers (a
        refused or dropped message still crossed the wire)."""
        if self.ledger is not None:
            self.ledger.charge(message.kind, node=message.sender, size=size)

    def _admit(self, destination: int, message: Message,
               size: int) -> Tuple[Optional[SendResult], Optional[MessageFault]]:
        """Everything ``send`` does before it touches a queue.

        Charges the ledger *size* bytes, refuses dead and unknown
        destinations, then draws the message's fate -- the one point
        where the :class:`FaultPlan` rng is consulted, after the refusals
        and before any enqueue, so a seeded plan draws the identical
        fault sequence over every transport by construction.  Returns
        ``(refusal, fault)``: a non-None *refusal* is ``send``'s result
        (dead, unknown, or an injected drop); otherwise *fault* is the
        duplicate/delay/defer the hand-off must honour, or None.
        """
        self._charge(message, size)
        if destination in self._dead:
            self.messages_dropped += 1
            return RESULT_DEAD, None
        if destination not in self._mailboxes:
            self.messages_dropped += 1
            return RESULT_UNKNOWN, None
        if self.faults is None:
            return None, None
        fault = self.faults.message_fault(message.sender, destination)
        if fault is None:
            return None, None
        if fault.drop:
            self.faults_dropped += 1
            self._trace_fault(message, destination, "drop")
            return RESULT_DROPPED, None
        if fault.duplicate:
            self._trace_fault(message, destination, "duplicate")
        if fault.delay > 0:
            self._trace_fault(message, destination, "delay", amount=fault.delay)
        if fault.defer > 0:
            self._trace_fault(message, destination, "reorder", amount=fault.defer)
        return None, fault

    async def _in_flight_delay(self, destination: int, seconds: float) -> bool:
        """Sleep *seconds*, then re-check the dead set: the destination
        may have died mid-flight.  True when the send may go on."""
        await asyncio.sleep(seconds)
        if destination in self._dead:
            self.messages_dropped += 1
            return False
        return True

    # ------------------------------------------------------------------ #
    # fault tracing
    # ------------------------------------------------------------------ #

    def _trace_fault(self, message: Message, destination: int,
                     fault: str, amount: float = 0.0) -> None:
        """Record one injected fault as a point span on the message's
        trace (traced messages only; untraced traffic costs one test)."""
        if self.traces is None or message.traceparent is None:
            return
        attributes = {
            "fault": fault,
            "kind": message.kind,
            "sender": f"{message.sender:x}",
            "destination": f"{destination:x}",
        }
        if amount:
            attributes["amount"] = round(amount, 6)
        self.traces.record(
            message.traceparent.child("wire-fault", fault, message.message_id),
            "wire-fault",
            **attributes,
        )


class InProcessTransport(TransportBase):
    """Mailbox-per-node message passing with failure semantics.

    Each node owns an ``asyncio.Queue`` mailbox.  ``send`` optionally
    sleeps a latency drawn from a latency model before enqueueing, so
    messages genuinely overtake each other when routes differ -- the
    concurrency the live tests exercise.  Sends to unregistered or dead
    addresses fail (``SendResult.peer_dead``), which is how a live node
    discovers a peer's death.
    """

    def __init__(self, latency: Optional[LatencyModel] = None,
                 latency_scale: float = 0.001,
                 faults=None) -> None:
        """*latency_scale* converts latency-model units into seconds of
        real asyncio sleep (keep it small; the point is ordering, not
        wall-clock realism).  *faults* is an optional
        :class:`~repro.faults.plan.FaultPlan` consulted per send."""
        super().__init__(faults=faults)
        self._latency = latency
        self._latency_scale = latency_scale

    async def send(self, destination: int, message: Message) -> SendResult:
        """Deliver *message*; ``peer_dead`` if the destination is
        dead/unknown.

        The failure is reported to the *sender* (models a timeout /
        connection refusal), which is what triggers repair in the node
        runtime.  An injected *drop* instead returns an accepted result
        without delivering -- a lost packet looks like success until no
        reply arrives, which is what the retry/backoff layer handles.
        """
        message.message_id = next(self._sequence)
        ledger = self.ledger
        size = message.wire_bytes(ledger.model) if ledger is not None else 0
        refusal, fault = self._admit(destination, message, size)
        if refusal is not None:
            return refusal
        if self._latency is not None:
            delay = self._latency.delay(message.sender, destination)
            if delay > 0 and not await self._in_flight_delay(
                    destination, delay * self._latency_scale):
                return RESULT_DEAD
        if fault is not None and fault.delay > 0:
            self.faults_delayed += 1
            if not await self._in_flight_delay(
                    destination, fault.delay * self._latency_scale):
                return RESULT_DEAD
        self.messages_sent += 1
        queue = self._mailboxes[destination]
        if fault is not None and fault.defer > 0:
            # Reorder: enqueue later without blocking the sender, so
            # messages sent after this one genuinely overtake it.
            self.faults_reordered += 1
            asyncio.get_running_loop().call_later(
                fault.defer * self._latency_scale, queue.put_nowait, message
            )
        else:
            queue.put_nowait(message)
        if fault is not None and fault.duplicate:
            self.faults_duplicated += 1
            self._charge(message, size)  # a second copy on the wire
            queue.put_nowait(message)
        return RESULT_DELIVERED
