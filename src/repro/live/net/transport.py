"""SocketTransport: the live ``send()`` contract over real asyncio TCP.

Same contract as :class:`~repro.live.transport.InProcessTransport` --
``register`` / ``send`` / ``receive`` / ``mark_dead`` -- so
``LiveCluster``, ``RetryPolicy``, ``FaultPlan`` injection, traceparent
propagation and ``CostLedger`` charging run unmodified; but every
message is genuinely encoded, framed, written to a localhost socket,
read back in arbitrary chunks, and decoded on the destination's side.

Ordering matches the in-process baseline where determinism depends on
it: both ``send()`` methods run the one ``TransportBase._admit`` front
half, so the :class:`FaultPlan` rng is consulted at the same point
(after the dead/unknown checks, before any enqueue) and a seeded plan
draws the identical fault sequence over both transports when the
caller's send order is the same -- the property the conformance suite
(tests/test_live_socket.py) pins.

Differences from the baseline, all deliberate:

* **Ledger pricing** -- each send is charged by the *actual* encoded
  frame length (``size=len(frame)``), not the wire-size model; an
  injected duplicate charges a second full frame.
* **Backpressure** -- the per-peer send queue is bounded; a peer that
  reads slower than we send eventually fills its mailbox, the TCP
  buffers, the send queue -- and ``send()`` returns ``SEND_TIMEOUT``
  (liveness *unknown*: the node runtime must not forget the peer).
* **Death is a closed listener** -- ``mark_dead`` retires the victim's
  endpoint, so in-flight and future connections fail the way a crashed
  process's would; the sender still gets the prompt ``SEND_DEAD``
  result from the dead-set check, keeping failure discovery timing
  aligned with the baseline.
"""

from __future__ import annotations

import asyncio
from typing import Set

from repro.live.net.codec import CodecError, decode_message, encode_message
from repro.live.net.framing import DEFAULT_MAX_FRAME, encode_frame
from repro.live.net.pool import DEFAULT_SEND_QUEUE, NodePool
from repro.live.transport import (
    RESULT_DEAD,
    RESULT_DELIVERED,
    RESULT_TIMEOUT,
    Message,
    SendResult,
    TransportBase,
    well_formed,
)

#: Bound on each node's inbound mailbox; the tail of the backpressure
#: chain (mailbox full -> reader blocked -> TCP buffers fill -> sender's
#: send queue fills -> SEND_TIMEOUT).
DEFAULT_MAILBOX_LIMIT = 1024


class SocketTransport(TransportBase):
    """Live transport over localhost TCP with length-prefixed frames."""

    def __init__(self, faults=None,
                 max_frame: int = DEFAULT_MAX_FRAME,
                 send_queue_size: int = DEFAULT_SEND_QUEUE,
                 mailbox_limit: int = DEFAULT_MAILBOX_LIMIT,
                 send_timeout: float = 5.0,
                 fault_delay_scale: float = 0.001) -> None:
        """*send_timeout* bounds how long ``send`` waits for space in the
        peer's send queue before reporting ``SEND_TIMEOUT``.
        *fault_delay_scale* converts FaultPlan delay/defer units into
        seconds, mirroring the in-process ``latency_scale``."""
        super().__init__(faults=faults)
        self._max_frame = max_frame
        self._mailbox_limit = mailbox_limit
        self._send_timeout = send_timeout
        self._fault_delay_scale = fault_delay_scale
        self._pool = NodePool(max_frame=max_frame,
                              send_queue_size=send_queue_size)
        # Frames accepted toward the wire but not yet in a mailbox (or
        # discarded): send queues, TCP buffers, decoder buffers.  idle()
        # must see these -- an empty-mailboxes check alone would let the
        # quiesce loop declare silence while bytes are still in flight.
        self._in_flight = 0
        self._retirements: Set[asyncio.Task] = set()
        self.bytes_sent = 0
        self.frames_delivered = 0
        self.frames_discarded = 0
        self.sends_timed_out = 0

    # ------------------------------------------------------------------ #
    # registration / liveness
    # ------------------------------------------------------------------ #

    def _make_mailbox(self) -> asyncio.Queue:
        return asyncio.Queue(maxsize=self._mailbox_limit)

    def register(self, address: int) -> asyncio.Queue:
        queue = super().register(address)

        async def deliver(payload: bytes, _address: int = address) -> None:
            await self._deliver(_address, payload)

        self._pool.spawn(address, deliver)
        return queue

    def mark_dead(self, address: int) -> None:
        super().mark_dead(address)
        # Retiring the listener is async; schedule it and keep the
        # handle so aclose() can await stragglers.
        task = asyncio.get_running_loop().create_task(
            self._pool.retire(address)
        )
        self._retirements.add(task)
        task.add_done_callback(self._retirements.discard)

    # ------------------------------------------------------------------ #
    # receive side
    # ------------------------------------------------------------------ #

    async def _deliver(self, address: int, payload: bytes) -> None:
        """Decode one inbound frame payload into *address*'s mailbox.

        The edge: a frame that does not decode, or decodes to a message
        outside :data:`~repro.live.transport.LIVE_KINDS`, is counted in
        ``frames_discarded`` and goes no further."""
        try:
            message = decode_message(payload)
        except CodecError:
            message = None
        if message is None or not well_formed(message, self._mailboxes):
            self.frames_discarded += 1
            self._landed()
            return
        if address in self._dead or address not in self._mailboxes:
            # Raced a kill: the bytes arrived but nobody is home.
            self.messages_dropped += 1
            self._landed()
            return
        # May block when the mailbox is full -- that is the backpressure
        # propagating to this connection's reader, by design.
        await self._mailboxes[address].put(message)
        self.frames_delivered += 1
        self._landed()

    def _landed(self) -> None:
        """One frame left the wire.  Listeners accept any TCP client, so
        the frame may be one this transport never enqueued: the count
        stops at zero, or a single foreign frame would leave ``idle()``
        false for good."""
        if self._in_flight > 0:
            self._in_flight -= 1

    def _discard(self, frame: bytes) -> None:
        """A link gave up on a frame (dead endpoint, broken wire)."""
        self.frames_discarded += 1
        self._landed()

    # ------------------------------------------------------------------ #
    # send side
    # ------------------------------------------------------------------ #

    async def send(self, destination: int, message: Message) -> SendResult:
        message.message_id = next(self._sequence)
        frame = encode_frame(encode_message(message), self._max_frame)
        # Real-byte pricing: the actual frame length, not the model.
        refusal, fault = self._admit(destination, message, len(frame))
        if refusal is not None:
            return refusal
        if fault is not None and fault.delay > 0:
            self.faults_delayed += 1
            if not await self._in_flight_delay(
                    destination, fault.delay * self._fault_delay_scale):
                return RESULT_DEAD
        link = self._pool.link_to(destination, self._discard)
        if fault is not None and fault.defer > 0:
            # Reorder: hand the frame to the link later, without blocking
            # this sender, so later sends genuinely overtake it.
            self.faults_reordered += 1
            self._in_flight += 1
            asyncio.get_running_loop().call_later(
                fault.defer * self._fault_delay_scale,
                self._enqueue_deferred, link, frame,
            )
        else:
            if not await self._enqueue(link, frame):
                self.sends_timed_out += 1
                return RESULT_TIMEOUT
        self.messages_sent += 1
        self.bytes_sent += len(frame)
        if fault is not None and fault.duplicate:
            self.faults_duplicated += 1
            self._charge(message, len(frame))  # a second full frame
            if await self._enqueue(link, frame):
                self.bytes_sent += len(frame)
        return RESULT_DELIVERED

    async def _enqueue(self, link, frame: bytes) -> bool:
        """Queue *frame* on a link within the send timeout."""
        self._in_flight += 1
        try:
            # A queue with room (the measured depth is <= 1) costs no
            # Task and no timer; only a full one is worth waiting on.
            link.queue.put_nowait(frame)
        except asyncio.QueueFull:
            try:
                await asyncio.wait_for(link.queue.put(frame),
                                       self._send_timeout)
            except asyncio.TimeoutError:
                self._in_flight -= 1
                return False
        return True

    def _enqueue_deferred(self, link, frame: bytes) -> None:
        """call_later callback for reordered frames (sync context)."""
        try:
            link.queue.put_nowait(frame)
        except asyncio.QueueFull:
            self._discard(frame)

    # ------------------------------------------------------------------ #
    # wire observability
    # ------------------------------------------------------------------ #

    def mailbox_capacity(self) -> int:
        return self._mailbox_limit

    def wire_stats(self) -> dict:
        stats = super().wire_stats()
        stats.update(
            links=self._pool.link_count(),
            poisoned_connections=self._pool.poisoned_total(),
            resynced_bytes=self._pool.resynced_total(),
            send_queue_depth=self._pool.send_queue_depth(),
            in_flight=self._in_flight,
            sends_timed_out=self.sends_timed_out,
            # Socket-only extras (absent from the gauge families, so the
            # cross-transport parity contract is unaffected).
            bytes_sent=self.bytes_sent,
            frames_delivered=self.frames_delivered,
            frames_discarded=self.frames_discarded,
        )
        return stats

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def idle(self) -> bool:
        return self._in_flight == 0 and super().idle()

    async def aclose(self) -> None:
        for task in list(self._retirements):
            try:
                await task
            except asyncio.CancelledError:
                pass
        await self._pool.aclose()
