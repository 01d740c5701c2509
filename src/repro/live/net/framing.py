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
  the connection it poisoned is torn down by the receiving endpoint.
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

    def pending(self) -> int:
        """Bytes buffered but not yet parsed into a frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[bytes]:
        """Consume *data*; return every completed frame payload.

        Frames are parsed from a running offset into the buffer, which
        is compacted once per call rather than once per frame."""
        buffer = self._buffer
        buffer += data
        frames: List[bytes] = []
        start = 0
        while True:
            if start < len(buffer) and not buffer.startswith(MAGIC, start):
                start = self._resync(start)
            header_end = start + HEADER_BYTES
            if len(buffer) < header_end:
                break
            length = int.from_bytes(buffer[start + len(MAGIC):header_end], "big")
            if length > self.max_frame:
                # Poisoned stream: drop the bogus header so a (hopeless
                # but harmless) retry of feed() cannot loop, then refuse.
                del buffer[:start + len(MAGIC)]
                self.resynced_bytes += len(MAGIC)
                raise FrameTooLarge(
                    f"peer declared a {length}-byte frame "
                    f"(limit {self.max_frame})"
                )
            end = header_end + length
            if len(buffer) < end:
                break
            frames.append(bytes(buffer[header_end:end]))
            start = end
        if start:
            del buffer[:start]
        return frames

    def _resync(self, start: int) -> int:
        """Where the frame search goes on from *start*, at which the
        buffer does not hold ``MAGIC``: the next ``MAGIC``, or a prefix
        of it that ends the buffer (it may complete on the next feed).
        The garbage skipped is counted."""
        buffer = self._buffer
        remaining = len(buffer) - start
        if remaining < len(MAGIC) and MAGIC.startswith(buffer[start:]):
            return start
        index = buffer.find(MAGIC, start + 1)
        if index < 0:
            # No full magic: keep a trailing partial-magic prefix (it
            # may be a frame boundary torn mid-magic), skip the rest.
            index = len(buffer)
            for size in range(min(len(MAGIC) - 1, remaining), 0, -1):
                if buffer.endswith(MAGIC[:size]):
                    index -= size
                    break
        self.resynced_bytes += index - start
        return index
