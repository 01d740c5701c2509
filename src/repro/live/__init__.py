"""A live asyncio deployment of the Pastry overlay.

The rest of the repository evaluates the protocols with deterministic
message-walking -- ideal for measurement, but it cannot exhibit
*concurrency*: overlapping joins, in-flight messages crossing each
other, nodes answering while other requests are outstanding.  This
package runs the same per-node state machines (:class:`NodeState`, the
routing policies, the join logic) as real asyncio tasks exchanging
messages over in-process queues:

* :mod:`repro.live.transport` -- per-node mailboxes with optional
  latency, message counting, and delivery failure to dead nodes;
* :mod:`repro.live.cluster` -- the node task (message loop: route,
  join, state exchange, announce) and the cluster orchestrator that
  bootstraps overlays with *concurrent* joins;
* :mod:`repro.live.net` -- the same ``send()`` contract over real
  localhost TCP sockets (length-prefixed frames in a binary codec,
  per-peer connection pool, bounded send queues), proven behaviourally
  equivalent by the seeded conformance suite.

The protocols are byte-compatible with the synchronous simulator: the
integration tests assert that a live-built overlay routes every sampled
key to the same ground-truth root.
"""

from repro.live.cluster import LiveCluster, LiveNode
from repro.live.transport import (
    InProcessTransport,
    Message,
    SendResult,
    TransportBase,
)

__all__ = [
    "LiveCluster",
    "LiveNode",
    "InProcessTransport",
    "Message",
    "SendResult",
    "TransportBase",
]
