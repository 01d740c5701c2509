"""Length-prefixed wire framing for the socket transport.

One frame on the TCP stream is::

    +-------+-----------------+------------------------+
    | magic | length (4B, BE) | payload (length bytes) |
    |  "Pw" |                 |  one encoded Message   |
    +-------+-----------------+------------------------+

The decoder is an incremental state machine fed whatever the socket
hands it: frames may arrive torn at *any* byte boundary (including
inside the magic or the length word) and several frames may arrive in
one read.  Two defensive behaviours are part of the contract, each
pinned by tests/test_wire_framing.py:

* **oversized rejection** -- a declared length above ``max_frame``
  raises :class:`FrameTooLarge` instead of allocating; a garbage or
  hostile peer must not be able to balloon the receiver's memory, and
  the connection it poisoned is torn down by the reader.
* **garbage-prefix resync** -- bytes that do not start with the magic
  are skipped up to the next magic candidate (counted in
  ``resynced_bytes``), so a stream that lost sync recovers at the next
  genuine frame boundary instead of mis-parsing payload bytes as a
  header forever.
"""

from __future__ import annotations

from typing import List

#: Two printable magic bytes open every frame; resync scans for them.
MAGIC = b"Pw"
#: Bytes of magic + length prefix before the payload.
HEADER_BYTES = len(MAGIC) + 4
#: Default ceiling on one frame's payload (16 MiB: far above any
#: protocol message, far below anything that could hurt the host).
DEFAULT_MAX_FRAME = 16 * 1024 * 1024


class FrameError(ValueError):
    """The stream violated the framing contract."""


class FrameTooLarge(FrameError):
    """A frame declared a payload above the decoder's ``max_frame``."""


def encode_frame(payload: bytes, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Wrap *payload* in one wire frame."""
    if len(payload) > max_frame:
        raise FrameTooLarge(
            f"payload of {len(payload)} bytes exceeds the {max_frame}-byte limit"
        )
    return MAGIC + len(payload).to_bytes(4, "big") + payload


class FrameDecoder:
    """Incremental frame parser over an arbitrarily-chunked byte stream.

    ``feed(data)`` returns the payloads of every frame completed by
    *data*, in stream order; partial trailing bytes are buffered for the
    next feed.  The decoder never looks at payload contents.
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        if max_frame < 1:
            raise ValueError("max_frame must be positive")
        self.max_frame = max_frame
        self._buffer = bytearray()
        #: Garbage bytes skipped while hunting for a frame boundary.
        self.resynced_bytes = 0
        #: Completed frames decoded so far.
        self.frames_decoded = 0

    def pending(self) -> int:
        """Bytes buffered but not yet parsed into a frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[bytes]:
        """Consume *data*; return every completed frame payload."""
        self._buffer.extend(data)
        frames: List[bytes] = []
        buffer = self._buffer
        while True:
            self._resync()
            if len(buffer) < HEADER_BYTES:
                break
            length = int.from_bytes(buffer[len(MAGIC):HEADER_BYTES], "big")
            if length > self.max_frame:
                # Poisoned stream: drop the bogus header so a (hopeless
                # but harmless) retry of feed() cannot loop, then refuse.
                del buffer[:len(MAGIC)]
                self.resynced_bytes += len(MAGIC)
                raise FrameTooLarge(
                    f"peer declared a {length}-byte frame "
                    f"(limit {self.max_frame})"
                )
            if len(buffer) < HEADER_BYTES + length:
                break
            frames.append(bytes(buffer[HEADER_BYTES:HEADER_BYTES + length]))
            del buffer[:HEADER_BYTES + length]
            self.frames_decoded += 1
        return frames

    def _resync(self) -> None:
        """Discard leading bytes until the buffer starts with ``MAGIC``
        (or with a prefix of it, which may complete on the next feed)."""
        buffer = self._buffer
        while buffer and not MAGIC.startswith(bytes(buffer[:len(MAGIC)])):
            index = buffer.find(MAGIC, 1)
            if index >= 0:
                self.resynced_bytes += index
                del buffer[:index]
                return
            # No full magic: keep a trailing partial-magic prefix (it
            # may be a frame boundary torn mid-magic), drop the rest.
            keep = 0
            for size in range(len(MAGIC) - 1, 0, -1):
                if bytes(buffer[-size:]) == MAGIC[:size]:
                    keep = size
                    break
            dropped = len(buffer) - keep
            self.resynced_bytes += dropped
            del buffer[:dropped]
            return
