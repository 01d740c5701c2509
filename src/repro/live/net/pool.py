"""Socket endpoints and per-peer connection pooling.

Three small pieces compose into the socket transport's data plane, which
runs on loop callbacks rather than on a relay task per frame:

* :class:`NodeEndpoint` -- one ``loop.create_server`` listener per node,
  bound to an ephemeral localhost port, with one small
  :class:`asyncio.Protocol` per inbound connection.  Its
  ``data_received`` feeds the connection's
  :class:`~repro.live.net.framing.FrameDecoder` and hands each completed
  payload to the endpoint's ``deliver`` callback, inside the same
  callback.  ``deliver`` returns None once the frame is placed; an
  awaitable means "not yet" (a full mailbox): the connection pauses
  reading, keeps its remaining frames in order, and resumes once the
  awaitable is done.  A framing violation (oversized frame,
  undecodable stream) poisons only that connection -- it is torn
  down, the listener and its other connections live on.
* :class:`PeerLink` -- the sender side: one long-lived outbound
  connection per (transport, destination) pair.  A sender writes a frame
  straight to the socket when the link is idle: connected, nothing
  queued or being written, and an empty write buffer.  Otherwise the
  frame goes into a **bounded** queue drained by a writer task, which
  alone connects, waits out the high-water mark, reconnects once on a
  broken connection, and discards (through ``on_discard``, to the
  transport's in-flight accounting) a frame it cannot deliver.
* :class:`NodePool` -- the registry hosting N endpoints + links in one
  process, with graceful ``aclose()`` (stop listeners, flush-and-stop
  writers, close connections).

Backpressure runs end to end: a full mailbox pauses the connection, the
TCP buffers fill, the sender's write buffer stays non-empty so its
frames queue, the bounded queue fills, and ``send()`` times out with a
typed ``SEND_TIMEOUT`` instead of buffering without limit.

The pool knows nothing about messages -- it moves opaque frames.  All
protocol semantics (fault injection, ledger charging, dead-peer checks)
stay in :class:`~repro.live.net.transport.SocketTransport`.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Awaitable, Callable, Dict, Iterator, Optional, Set, Tuple

from repro.live.net.framing import DEFAULT_MAX_FRAME, FrameDecoder, FrameError

#: Queue sentinel telling a writer task to flush and exit.
_CLOSE = object()

#: Per-peer send-queue bound (frames).  Deep enough that bursts within
#: one protocol round never block; shallow enough that a stalled peer
#: surfaces as SEND_TIMEOUT quickly.
DEFAULT_SEND_QUEUE = 64
#: How long ``PeerLink.aclose`` lets the writer flush queued frames
#: before cancelling it -- a peer that stopped reading must not be able
#: to wedge shutdown.
CLOSE_GRACE = 1.0

#: Places one frame payload: None when done, else an awaitable to wait
#: for before the connection's next frame (an ``async def`` qualifies).
Deliver = Callable[[bytes], Optional[Awaitable]]
Resolve = Callable[[], Awaitable[Tuple[str, int]]]


class _Connection(asyncio.Protocol):
    """One inbound connection: frames out of ``data_received``, in order."""

    def __init__(self, endpoint: NodeEndpoint) -> None:
        self._endpoint = endpoint
        self._deliver = endpoint._deliver
        self.decoder = FrameDecoder(endpoint._max_frame)
        self.transport: Optional[asyncio.Transport] = None
        #: The delivery reading is paused for, while there is one.
        self._waiting: Optional[asyncio.Future] = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self._endpoint._connections.add(self)

    def data_received(self, data: bytes) -> None:
        try:
            payloads = self.decoder.feed(data)
        except FrameError:
            self._endpoint.poisoned_connections += 1
            self.transport.close()
            return
        self._deliver_from(iter(payloads))

    def _deliver_from(self, frames: Iterator[bytes]) -> None:
        for payload in frames:
            pending = self._deliver(payload)
            if pending is not None:
                # No data_received until resume_reading(): the frames
                # after this one wait in *frames*, in order.
                self.transport.pause_reading()
                self._waiting = asyncio.ensure_future(pending)
                self._waiting.add_done_callback(
                    functools.partial(self._resume, frames)
                )
                return

    def _resume(self, frames: Iterator[bytes], waited: asyncio.Future) -> None:
        self._waiting = None
        if waited.cancelled():
            return  # close(): the endpoint is shutting down
        waited.result()  # a delivery that raised surfaces here
        self._deliver_from(frames)
        if self._waiting is None:
            self.transport.resume_reading()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # Frames already decoded still land (a paused delivery finishes);
        # only the decoder's resync history moves to the endpoint.
        self._endpoint._connections.discard(self)
        self._endpoint._resynced_closed += self.decoder.resynced_bytes

    def close(self) -> None:
        """Drop the connection, abandoning a delivery still waiting."""
        self.transport.close()
        if self._waiting is not None:
            self._waiting.cancel()


class NodeEndpoint:
    """One node's listening socket and its inbound connections."""

    def __init__(self, address: int, deliver: Deliver,
                 max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.address = address
        self.ready = asyncio.Event()
        self.host = "127.0.0.1"
        self.port: Optional[int] = None
        self._deliver = deliver
        self._max_frame = max_frame
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[_Connection] = set()
        self.closed = False
        #: Framing violations that killed an inbound connection.
        self.poisoned_connections = 0
        # Bytes resynced on connections that already closed, so
        # `resynced_bytes` never loses history.
        self._resynced_closed = 0

    @property
    def resynced_bytes(self) -> int:
        """Garbage bytes skipped while hunting for frame magic, summed
        over every inbound connection this endpoint ever served."""
        return self._resynced_closed + sum(
            connection.decoder.resynced_bytes
            for connection in self._connections
        )

    async def start(self) -> None:
        if self.closed:
            return
        server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, 0
        )
        if self.closed:
            # Retired while the listener was coming up.
            server.close()
            await server.wait_closed()
            return
        self._server = server
        self.port = server.sockets[0].getsockname()[1]
        self.ready.set()

    async def aclose(self) -> None:
        if self.closed:
            return
        self.closed = True
        # Wake (not strand) anyone awaiting ready; resolve() re-checks
        # `closed` after the wait and raises LookupError.
        self.ready.set()
        if self._server is not None:
            self._server.close()
        # Close live inbound connections (on 3.12+ wait_closed would
        # otherwise wait for them forever).
        for connection in list(self._connections):
            connection.close()
        if self._server is not None:
            await self._server.wait_closed()


class PeerLink:
    """Outbound frames to one destination through one pooled connection."""

    def __init__(self, resolve: Resolve,
                 on_discard: Callable[[bytes], None],
                 queue_size: int = DEFAULT_SEND_QUEUE) -> None:
        self._resolve = resolve
        self._on_discard = on_discard
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_size)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._task = asyncio.get_running_loop().create_task(self._drain())
        self._closed = False

    def _open(self) -> bool:
        """The pooled connection can take a frame.  Peers never write
        back, so end-of-stream means the peer closed its end: a frame
        written there would vanish without an error."""
        writer = self._writer
        return (writer is not None and not writer.transport.is_closing()
                and not self._reader.at_eof())

    def try_write(self, frame: bytes) -> bool:
        """Write *frame* now, from the caller, if the link is idle:
        connected, nothing queued, an empty write buffer.  The writer
        task is then idle too -- it holds an unwritten frame only while
        it has no open connection (it writes at once when it has one) --
        so the frame cannot overtake one sent before it, and a peer that
        reads slowly still meets the bounded queue.  False: the caller
        queues the frame instead."""
        if not self.queue.empty() or not self._open():
            return False
        transport = self._writer.transport
        if transport.get_write_buffer_size():
            return False
        transport.write(frame)
        # A failed send closes the transport and drops the data: the
        # caller queues the frame, and the writer task reconnects.
        return not transport.is_closing()

    async def _connect(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        host, port = await self._resolve()
        return await asyncio.open_connection(host, port)

    async def _write(self, frame: bytes) -> None:
        if not self._open():
            # Never connected, or stale (peer restarted / closed its
            # end): start over on a fresh connection.  Only the single
            # _drain task ever calls _write, so nothing can interleave
            # on _writer across these awaits.
            await self._reset_writer()
            self._reader, self._writer = await self._connect()
        self._writer.write(frame)
        await self._writer.drain()

    async def _drain(self) -> None:
        while True:
            frame = await self.queue.get()
            if frame is _CLOSE:
                break
            try:
                try:
                    await self._write(frame)
                except (ConnectionError, OSError):
                    # The connection broke under the write: retry once
                    # on a fresh one.
                    await self._reset_writer()
                    await self._write(frame)
            except (ConnectionError, OSError, LookupError):
                await self._reset_writer()
                self._on_discard(frame)
            except asyncio.CancelledError:
                # Cancelled mid-write by aclose(): account for the frame
                # in hand so in-flight bookkeeping still balances.
                self._on_discard(frame)
                raise
        await self._reset_writer()

    async def _reset_writer(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Graceful path: ask the writer to flush and exit.  Both steps
        # are bounded -- with the queue full, or the peer no longer
        # reading (writer wedged in drain()), close must not block.
        try:
            self.queue.put_nowait(_CLOSE)
        except asyncio.QueueFull:
            pass
        else:
            done, _ = await asyncio.wait({self._task}, timeout=CLOSE_GRACE)
            if done:
                return
        # Forceful path: cancel the writer, abort the connection (drops
        # kernel-buffered bytes -- close() could block on the flush),
        # and discard what never left the queue.
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.transport.abort()
        while True:
            try:
                frame = self.queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if frame is not _CLOSE:
                self._on_discard(frame)


class NodePool:
    """Registry of the endpoints and links living in this process."""

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME,
                 send_queue_size: int = DEFAULT_SEND_QUEUE) -> None:
        self._max_frame = max_frame
        self._send_queue_size = send_queue_size
        self._endpoints: Dict[int, NodeEndpoint] = {}
        self._links: Dict[int, PeerLink] = {}
        self._starters: Set[asyncio.Task] = set()
        # Wire-state history of retired endpoints, so pool totals are
        # monotone across node departures.
        self._resynced_retired = 0
        self._poisoned_retired = 0

    def spawn(self, address: int, deliver: Deliver) -> NodeEndpoint:
        """Create and asynchronously start the endpoint for *address*.

        Synchronous by design -- ``transport.register`` is synchronous --
        so the listener comes up in the background; senders await the
        endpoint's ``ready`` event through :meth:`resolve`.
        """
        if address in self._endpoints:
            raise ValueError(f"endpoint {address} already exists")
        endpoint = NodeEndpoint(address, deliver, self._max_frame)
        self._endpoints[address] = endpoint
        task = asyncio.get_running_loop().create_task(endpoint.start())
        self._starters.add(task)
        task.add_done_callback(self._starters.discard)
        return endpoint

    async def resolve(self, address: int) -> Tuple[str, int]:
        """(host, port) of a registered endpoint, awaiting its startup."""
        endpoint = self._endpoints.get(address)
        if endpoint is None:
            raise LookupError(f"no endpoint for address {address}")
        await endpoint.ready.wait()
        if endpoint.closed or endpoint.port is None:
            raise LookupError(f"endpoint {address} retired during connect")
        return endpoint.host, endpoint.port

    def link_to(self, destination: int,
                on_discard: Callable[[bytes], None]) -> PeerLink:
        """The pooled outbound link to *destination* (created on first use)."""
        link = self._links.get(destination)
        if link is None:
            link = PeerLink(
                lambda: self.resolve(destination),
                on_discard,
                queue_size=self._send_queue_size,
            )
            self._links[destination] = link
        return link

    async def retire(self, address: int) -> None:
        """Stop one endpoint (a node leaving / marked dead): its listener
        closes, so senders see connection failures, like a real crash."""
        endpoint = self._endpoints.pop(address, None)
        if endpoint is not None:
            await endpoint.aclose()
            self._resynced_retired += endpoint.resynced_bytes
            self._poisoned_retired += endpoint.poisoned_connections

    # ------------------------------------------------------------------ #
    # wire observability (read by SocketTransport.wire_stats)
    # ------------------------------------------------------------------ #

    def link_count(self) -> int:
        return len(self._links)

    def send_queue_depth(self) -> int:
        """Frames queued on outbound links, waiting for writer tasks."""
        return sum(link.queue.qsize() for link in self._links.values())

    def poisoned_total(self) -> int:
        return self._poisoned_retired + sum(
            endpoint.poisoned_connections
            for endpoint in self._endpoints.values()
        )

    def resynced_total(self) -> int:
        return self._resynced_retired + sum(
            endpoint.resynced_bytes for endpoint in self._endpoints.values()
        )

    async def aclose(self) -> None:
        """Graceful shutdown: writers flush, listeners stop."""
        links, self._links = list(self._links.values()), {}
        for link in links:
            await link.aclose()
        for task in list(self._starters):
            if not task.done():
                task.cancel()
            try:
                await task
            except (asyncio.CancelledError, OSError):
                pass
        endpoints, self._endpoints = list(self._endpoints.values()), {}
        for endpoint in endpoints:
            await endpoint.aclose()
