"""Real-socket networking for the live layer.

The in-process transport passes :class:`Message` objects by reference;
this package puts them on actual localhost TCP sockets:

* :mod:`repro.live.net.framing` -- length-prefixed frames, torn-read
  tolerant decoding, oversized rejection, garbage resync;
* :mod:`repro.live.net.codec` -- versioned binary serialization of
  messages (tagged values; certificates, keys, raw file data);
* :mod:`repro.live.net.pool` -- per-node ``asyncio.start_server``
  endpoints and pooled per-peer outbound links with bounded send
  queues (the backpressure point);
* :mod:`repro.live.net.transport` -- :class:`SocketTransport`, the
  drop-in ``send()``-contract implementation the conformance suite
  proves equivalent to :class:`~repro.live.transport.InProcessTransport`.
"""

from repro.live.net.codec import CodecError, decode_message, encode_message
from repro.live.net.framing import (
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    FrameError,
    FrameTooLarge,
    encode_frame,
)
from repro.live.net.pool import NodeEndpoint, NodePool, PeerLink
from repro.live.net.transport import SocketTransport

__all__ = [
    "CodecError",
    "DEFAULT_MAX_FRAME",
    "FrameDecoder",
    "FrameError",
    "FrameTooLarge",
    "NodeEndpoint",
    "NodePool",
    "PeerLink",
    "SocketTransport",
    "decode_message",
    "encode_frame",
    "encode_message",
]
