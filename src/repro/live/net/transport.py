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
  reads slower than we send eventually fills its mailbox (which pauses
  the connection), the TCP buffers, the sender's write buffer, the send
  queue -- and ``send()`` returns ``SEND_TIMEOUT``
  (liveness *unknown*: the node runtime must not forget the peer).
* **Death is a closed listener** -- ``mark_dead`` retires the victim's
  endpoint, so in-flight and future connections fail the way a crashed
  process's would; the sender still gets the prompt ``SEND_DEAD``
  result from the dead-set check, keeping failure discovery timing
  aligned with the baseline.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Awaitable, Callable, Dict, Optional, Set

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

#: Bound on each node's inbound mailbox; the head of the backpressure
#: chain (mailbox full -> connection paused -> TCP buffers fill ->
#: sender's write buffer non-empty -> bounded send queue fills ->
#: SEND_TIMEOUT).
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
        # address -> the discard callback of the link to it, which
        # settles a frame the link gives up on.
        self._discards: Dict[int, Callable[[bytes], None]] = {}
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
        self._pool.spawn(address, functools.partial(self._deliver, address))
        self._discards[address] = functools.partial(self._discard, address)
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

    def _deliver(self, address: int, payload: bytes) -> Optional[Awaitable]:
        """Decode one inbound frame payload into *address*'s mailbox.

        Runs inside the connection's ``data_received``.  Returns None
        once the frame is placed, or -- only when the mailbox is full --
        an awaitable that places it: the connection pauses reading until
        it is done, which is the backpressure reaching TCP.

        The edge: a frame that does not decode, or decodes to a message
        outside :data:`~repro.live.transport.LIVE_KINDS`, is counted in
        ``frames_discarded`` and goes no further."""
        try:
            message = decode_message(payload)
        except CodecError:
            message = None
        if message is None or not well_formed(message, self._mailboxes):
            self.frames_discarded += 1
            self.settle(address)
            return None
        if address in self._dead or address not in self._mailboxes:
            # Raced a kill, which already settled the frame: the bytes
            # arrived but nobody is home.
            self.messages_dropped += 1
            return None
        mailbox = self._mailboxes[address]
        try:
            mailbox.put_nowait(message)
        except asyncio.QueueFull:
            return self._deliver_later(mailbox, message)
        self.frames_delivered += 1
        return None

    async def _deliver_later(self, mailbox: asyncio.Queue,
                             message: Message) -> None:
        await mailbox.put(message)
        self.frames_delivered += 1

    def _discard(self, destination: int, frame: bytes) -> None:
        """A link gave up on a frame (dead endpoint, broken wire)."""
        self.frames_discarded += 1
        self.settle(destination)

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
        link = self._pool.link_to(destination, self._discards[destination])
        if fault is not None and fault.defer > 0:
            # Reorder: hand the frame to the link later, without blocking
            # this sender, so later sends genuinely overtake it.
            self.faults_reordered += 1
            asyncio.get_running_loop().call_later(
                fault.defer * self._fault_delay_scale,
                self._enqueue_deferred, destination, link, frame,
            )
        else:
            if not await self._enqueue(destination, link, frame):
                self.sends_timed_out += 1
                return RESULT_TIMEOUT
        self.messages_sent += 1
        self.bytes_sent += len(frame)
        if fault is not None and fault.duplicate:
            self.faults_duplicated += 1
            self._charge(message, len(frame))  # a second full frame
            self._accept(destination)
            if await self._enqueue(destination, link, frame):
                self.bytes_sent += len(frame)
        return RESULT_DELIVERED

    async def _enqueue(self, destination: int, link, frame: bytes) -> bool:
        """Hand *frame* to a link: written at once if the link is idle,
        else queued within the send timeout.  A frame that times out, or
        whose sender is cancelled while it waits, settles here."""
        if link.try_write(frame):
            return True
        try:
            # A queue with room (the measured depth is <= 1) costs no
            # Task and no timer; only a full one is worth waiting on.
            link.queue.put_nowait(frame)
        except asyncio.QueueFull:
            try:
                await asyncio.wait_for(link.queue.put(frame),
                                       self._send_timeout)
            except asyncio.TimeoutError:
                self.settle(destination)
                return False
            except asyncio.CancelledError:
                self.settle(destination)
                raise
        return True

    def _enqueue_deferred(self, destination: int, link, frame: bytes) -> None:
        """call_later callback for reordered frames (sync context)."""
        if link.try_write(frame):
            return
        try:
            link.queue.put_nowait(frame)
        except asyncio.QueueFull:
            self._discard(destination, frame)

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

    async def aclose(self) -> None:
        for task in list(self._retirements):
            try:
                await task
            except asyncio.CancelledError:
                pass
        await self._pool.aclose()
        await super().aclose()
