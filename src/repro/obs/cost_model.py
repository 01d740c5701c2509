"""The wire-size model: what one overlay message of each kind *costs*.

PAST's economy argument (cheap routing, cheap state, bounded maintenance)
is about bytes on the wire, but the simulator's transport moves Python
objects.  This module is the documented bridge: every message kind the
simulated and live layers emit maps to a fixed **activity category** (the
ledger taxonomy) and an **estimated serialized size** in bytes.

The estimates are static per-kind costs derived from the field counts of
the PAST/Pastry protocol messages (section 2 of the paper), not measured
serializations.  They price the simulator and the in-process transport;
over sockets the ledger charges each live message its real frame bytes
instead (``live/net/``).

Sizing assumptions (documented so the numbers are auditable):

* nodeIds and fileIds are 128-bit: ``ID_BYTES`` = 16.
* every message carries a header (source/destination ids, kind tag,
  sequence number, trace context): ``WIRE_HEADER_BYTES`` = 48.
* a node-state *entry* (one leaf-set/routing-table/neighborhood slot)
  serializes to ``STATE_ENTRY_BYTES`` = 40: the id plus its network
  address and coordinates.
* state-transfer messages (leaf set, neighborhood set, one routing-table
  row) carry header + slots x entry bytes, with the default capacities
  (32-slot leaf/neighborhood sets, 16-column rows).
* stored files average ``MEAN_FILE_BYTES`` = 8 KiB -- the knob the
  storage workloads already use; data-bearing messages (insert, restore,
  lookup results) carry header + one file.

The activity taxonomy is **fixed** -- exactly the seven categories below,
so curve reports from different runs are always comparable.
"""

from __future__ import annotations

from typing import Dict, Tuple

ID_BYTES = 16
WIRE_HEADER_BYTES = 48
STATE_ENTRY_BYTES = 40
MEAN_FILE_BYTES = 8 * 1024

# One full 32-slot set (leaf or neighborhood) and one 16-column row.
_SET_BYTES = WIRE_HEADER_BYTES + 32 * STATE_ENTRY_BYTES  # 1328
_ROW_BYTES = WIRE_HEADER_BYTES + 16 * STATE_ENTRY_BYTES  # 688
_KEY_BYTES = WIRE_HEADER_BYTES + ID_BYTES  # 64: header + one id
_DATA_BYTES = WIRE_HEADER_BYTES + ID_BYTES + MEAN_FILE_BYTES  # 8256

# The fixed activity taxonomy.  Every message kind maps to exactly one.
CATEGORY_JOIN = "join"
CATEGORY_ROUTE = "route"
CATEGORY_REPAIR = "repair"
CATEGORY_LEAF_STABILIZE = "leaf-stabilize"
CATEGORY_REPLICATE = "replicate"
CATEGORY_CLIENT_DATA = "client-data"
CATEGORY_CONTROL = "control"

CATEGORIES = (
    CATEGORY_JOIN,
    CATEGORY_ROUTE,
    CATEGORY_REPAIR,
    CATEGORY_LEAF_STABILIZE,
    CATEGORY_REPLICATE,
    CATEGORY_CLIENT_DATA,
    CATEGORY_CONTROL,
)

# kind -> (category, bytes per message).  Keep docs/PROTOCOLS.md's
# message-category table in sync with this map.
MESSAGE_COSTS: Dict[str, Tuple[str, int]] = {
    # --- simulated overlay (pastry/, core/) --------------------------- #
    "route": (CATEGORY_ROUTE, _KEY_BYTES),  # one forwarding hop
    "lookup": (CATEGORY_ROUTE, _KEY_BYTES),  # lookup forwarding hop
    "join": (CATEGORY_JOIN, _KEY_BYTES),  # join-request forwarding hop
    "join-contact": (CATEGORY_JOIN, _KEY_BYTES),
    "join-neighborhood": (CATEGORY_JOIN, _SET_BYTES),
    "join-leafset": (CATEGORY_JOIN, _SET_BYTES),
    "join-row": (CATEGORY_JOIN, _ROW_BYTES),
    "join-announce": (CATEGORY_JOIN, _KEY_BYTES),
    "refine": (CATEGORY_CONTROL, _SET_BYTES),  # periodic state exchange
    "repair": (CATEGORY_REPAIR, _SET_BYTES),  # state request/reply pair half
    "repair-probe": (CATEGORY_REPAIR, _KEY_BYTES),
    "leafset-exchange": (CATEGORY_LEAF_STABILIZE, _SET_BYTES),
    "leafset-announce": (CATEGORY_LEAF_STABILIZE, _KEY_BYTES),
    "keepalive": (CATEGORY_LEAF_STABILIZE, WIRE_HEADER_BYTES + 8),
    "restore": (CATEGORY_REPLICATE, _DATA_BYTES),  # replica re-creation
    "insert": (CATEGORY_CLIENT_DATA, _DATA_BYTES),  # client store (+ diverts)
    "reclaim": (CATEGORY_CONTROL, _KEY_BYTES + ID_BYTES),  # fileId + credential
    "audit": (CATEGORY_CONTROL, _KEY_BYTES + 2 * ID_BYTES),
    "quota-service": (CATEGORY_CONTROL, _KEY_BYTES + 2 * ID_BYTES),
    # --- live cluster (live/) ----------------------------------------- #
    "route-result": (CATEGORY_ROUTE, _KEY_BYTES + 3 * ID_BYTES),  # path digest
    "join-request": (CATEGORY_JOIN, _KEY_BYTES),
    "join-reply": (CATEGORY_JOIN, _SET_BYTES),
    "announce": (CATEGORY_JOIN, _KEY_BYTES),
    "leafset-request": (CATEGORY_LEAF_STABILIZE, _KEY_BYTES),
    "leafset-reply": (CATEGORY_LEAF_STABILIZE, _SET_BYTES),
    "store-request": (CATEGORY_CLIENT_DATA, _DATA_BYTES),  # insert fan-out
    "store-ack": (CATEGORY_CLIENT_DATA, WIRE_HEADER_BYTES + 8),
    "insert-result": (CATEGORY_CLIENT_DATA, _KEY_BYTES + 2 * ID_BYTES),
    "lookup-result": (CATEGORY_CLIENT_DATA, _DATA_BYTES),  # carries the file
    # --- telemetry plane (obs/telemetry.py + live/cluster.py) ---------- #
    # Requests carry a request id (one key); replies carry structured
    # payloads whose budgeted sizes are deliberate caps, not averages: a
    # full registry export (~4 KiB), one incremental series window
    # (~2 KiB), one health verdict (~512 B).
    "telemetry-scrape": (CATEGORY_CONTROL, _KEY_BYTES),
    "telemetry-subscribe": (CATEGORY_CONTROL, _KEY_BYTES + ID_BYTES),
    "health-probe": (CATEGORY_CONTROL, _KEY_BYTES),
    "telemetry-snapshot": (CATEGORY_CONTROL, WIRE_HEADER_BYTES + 4096),
    "telemetry-series": (CATEGORY_CONTROL, WIRE_HEADER_BYTES + 2048),
    "health-report": (CATEGORY_CONTROL, WIRE_HEADER_BYTES + 512),
}

# Kinds nobody priced yet fall back here (visible in by_kind output, so
# an unpriced kind is an auditable gap rather than a crash).
DEFAULT_COST: Tuple[str, int] = (CATEGORY_CONTROL, _KEY_BYTES)


class CostModel:
    """Maps a message kind to its (category, bytes) cost.

    The default table is :data:`MESSAGE_COSTS`; pass *costs* to
    substitute a measured table (e.g. real serialized sizes) without
    touching any charging site.
    """

    __slots__ = ("costs",)

    def __init__(self, costs: Dict[str, Tuple[str, int]] = None) -> None:
        self.costs = costs if costs is not None else MESSAGE_COSTS

    def cost(self, kind: str) -> Tuple[str, int]:
        return self.costs.get(kind, DEFAULT_COST)

    def priced(self, kind: str) -> bool:
        """Whether *kind* has an explicit entry (vs the DEFAULT_COST fallback)."""
        return kind in self.costs

    def category(self, kind: str) -> str:
        return self.cost(kind)[0]

    def bytes_of(self, kind: str) -> int:
        return self.cost(kind)[1]


def state_bytes(entries: float) -> float:
    """Estimated serialized per-node state size for an entry count."""
    return entries * STATE_ENTRY_BYTES
