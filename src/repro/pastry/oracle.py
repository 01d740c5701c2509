"""Incremental oracle maintenance: O(changed-state) membership updates.

``PastryNetwork.rebuild_state_oracle`` reconstructs *every* node's leaf
set, routing table and neighborhood set from the global membership --
perfect for cold-starting a large overlay, ruinous under churn, where a
single join or silent failure forces an O(N log N) pass to keep the
oracle-built state truthful.

:class:`IncrementalOracle` keeps oracle-built state truthful in place.
The key observation is that the rebuild's ``(row, prefix, digit)``
candidate groups are *contiguous ranges of the sorted live ring*: the
group is exactly the ids in ``[((prefix << b) | digit) << shift,
+2^shift)`` with ``shift = bits - (row+1)*b``.  The persistent candidate
index is therefore the ring itself (which the network already maintains
on every membership change) plus bisect arithmetic -- nothing extra to
update, nothing extra to store.

Per membership change the maintainer touches only:

* the l/2 ring neighbours on each side of the changed position (their
  leaf sets are rebuilt from the ring -- the same loop the full rebuild
  runs, on a 2*(l/2)-node window instead of N);
* owners of the routing-table cells the changed node occupies or ought
  to occupy -- one cell per populated row, found by slicing the ring;
* the neighborhood sets of exactly the nodes whose leaf set or table
  changed, each moved by its pool delta (``NeighborhoodSet.replace``):
  M is the best-|M| of leaf members and table entries by
  ``(distance, id)``, so an id new to that pool is ranked in, an id
  gone from it and outside M changes nothing, and a member gone from
  it is replaced by an entrant ranked ahead of M's last member.  A
  node left without such an entrant, the joiner itself and the nodes
  whose rows grow or shrink at an ``oracle_rows`` threshold are
  reseeded from leaf + table (the oracle's M-invariant), as the
  rebuild does.

Equivalence contract (asserted by ``tests/test_oracle_incremental.py``):
with ``table_quality="perfect"`` -- whose per-cell choice is the
deterministic ``min`` over the whole group -- the incrementally
maintained state is **byte-identical** to a fresh
``rebuild_state_oracle`` after any interleaving of joins, failures and
revivals.  The sampled qualities ("good"/"random") draw from an RNG
stream the rebuild would consume differently, so for them the
maintainer guarantees *structural validity* instead: every entry live,
every entry in its correct slot, a cell vacant only when its candidate
group is empty, and leaf sets still byte-identical (leaf construction
never consults the RNG).  At every quality, each node's neighborhood
set stays exactly the reseed of its own leaf set and table.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence, Set, Tuple

from repro.pastry.network import (
    TABLE_QUALITY_PERFECT,
    TABLE_QUALITY_RANDOM,
    PastryNetwork,
    oracle_rows,
)
from repro.pastry.node import PastryNode


class IncrementalOracle:
    """In-place oracle maintenance for one :class:`PastryNetwork`.

    Constructed via ``network.attach_incremental_oracle()``, which runs
    the cold-start rebuild first; after that the network's membership
    hooks call :meth:`on_join` / :meth:`on_leave` / :meth:`on_revive`.
    """

    __slots__ = ("network", "space", "_rng")

    def __init__(self, network: PastryNetwork) -> None:
        self.network = network
        self.space = network.space
        # Sampled-quality re-picks draw from their own stream so they
        # never perturb the rebuild's "oracle-build" sequence.
        self._rng = network.rngs.stream("oracle-incremental")

    # ------------------------------------------------------------------ #
    # membership events (ring already updated by the network)
    # ------------------------------------------------------------------ #

    def on_join(self, joiner: int) -> None:
        """A node was added to the live ring (state empty or stale)."""
        net = self.network
        nodes = net.nodes
        ids = net._live_sorted
        count = len(ids)
        space = self.space
        reseed: Set[int] = set()

        # Crossing a row-count threshold grows every pre-existing node's
        # table by the new rows (rare: happens when N passes a power of
        # the digit base; amortised O(1) rows per join).
        old_rows = oracle_rows(space, count - 1)
        max_rows = oracle_rows(space, count)
        if max_rows > old_rows:
            for node_id in ids:
                if node_id == joiner:
                    continue
                node = nodes[node_id]
                for row in range(old_rows, max_rows):
                    if self._fill_row(node, row):
                        reseed.add(node_id)

        # The joiner's own state, built exactly as the rebuild would.
        j_index = bisect_left(ids, joiner)
        self._rebuild_own_state(nodes[joiner], j_index, max_rows)
        reseed.add(joiner)

        # Ring neighbours within l/2 positions gain (or shift) a leaf.
        self._rebuild_window(j_index, reseed, exclude=joiner)

        # Offer the joiner to the one table cell per row it can occupy:
        # owners share the row's prefix but differ in the joiner's digit.
        # An empty cell takes it (its group was empty, so the rebuild
        # would pick the sole member).  Otherwise perfect and good
        # quality replace the incumbent iff the joiner is strictly
        # closer, ties to the smaller id -- the rebuild's pick, and the
        # order M ranks by; random quality keeps the incumbent, any
        # group member being valid.
        keep_incumbent = net.table_quality == TABLE_QUALITY_RANDOM
        for row in range(max_rows):
            col = space.digit(joiner, row)
            owners = self._owners(row, space.prefix(joiner, row), col)
            for node in map(nodes.__getitem__, owners):
                table = node.state.routing_table
                cells = table._rows[row]
                incumbent = None if cells is None else cells[col]
                proximity = node._proximity
                if incumbent is None:
                    distance = proximity(joiner)
                elif keep_incumbent:
                    continue
                else:
                    distance = proximity(joiner)
                    rival = proximity(incumbent)
                    if distance > rival or (distance == rival and joiner > incumbent):
                        continue
                table.install(row, col, joiner)
                if node.node_id in reseed:
                    continue
                leaf = node.state.leaf_set.members()
                left = [] if incumbent is None or incumbent in leaf else [incumbent]
                entered = [] if joiner in leaf else [(distance, joiner)]
                if not node.state.neighborhood.replace(left, entered):
                    reseed.add(node.node_id)

        self._reseed(reseed)

    def on_leave(self, departed: int) -> None:
        """A node left the live ring (silent failure or departure)."""
        net = self.network
        nodes = net.nodes
        ids = net._live_sorted
        count = len(ids)
        if count == 0:
            return
        space = self.space
        reseed: Set[int] = set()

        old_rows = oracle_rows(space, count + 1)
        max_rows = oracle_rows(space, count)
        if max_rows < old_rows:
            # Shrinking across a threshold vacates the now-unpopulated
            # deep rows everywhere, as a rebuild at the new size would.
            for node_id in ids:
                table = nodes[node_id].state.routing_table
                for row in range(max_rows, old_rows):
                    if table.clear_row(row):
                        reseed.add(node_id)

        # Leaf sets that referenced the departed node: every node within
        # l/2 ring positions of its former slot.
        self._rebuild_window(bisect_left(ids, departed), reseed)

        # Table cells occupied by the departed node: one per row, owned
        # by the prefix-sharers; re-pick from the shrunken group (or
        # vacate the cell when the group emptied).
        for row in range(max_rows):
            col = space.digit(departed, row)
            prefix = space.prefix(departed, row)
            lo, hi = self._group_slice(row, prefix, col)
            holders = [
                node
                for node in map(nodes.__getitem__, self._owners(row, prefix, col))
                if (cells := node.state.routing_table._rows[row]) is not None
                and cells[col] == departed
            ]
            for node in holders:
                table = node.state.routing_table
                entered = []
                if lo >= hi:
                    table.clear(row, col)
                else:
                    pick = self._pick(node, lo, hi)
                    table.install(row, col, pick)
                    if pick not in node.state.leaf_set.members():
                        entered.append((node._proximity(pick), pick))
                if node.node_id in reseed:
                    continue
                if not node.state.neighborhood.replace([departed], entered):
                    reseed.add(node.node_id)

        self._reseed(reseed)

    def on_revive(self, node_id: int) -> None:
        """A failed node came back: its retained state is stale, so it is
        rebuilt from scratch and announced exactly like a join."""
        self.on_join(node_id)

    # ------------------------------------------------------------------ #
    # ring slicing: the persistent (row, prefix, digit) candidate index
    # ------------------------------------------------------------------ #

    def _group_slice(self, row: int, prefix: int, digit: int) -> Tuple[int, int]:
        """Ring index range holding group (row, prefix, digit)."""
        space = self.space
        shift = space.bits - (row + 1) * space.b
        low_id = ((prefix << space.b) | digit) << shift
        ids = self.network._live_sorted
        return (
            bisect_left(ids, low_id),
            bisect_left(ids, low_id + (1 << shift)),
        )

    def _owners(self, row: int, prefix: int, digit: int) -> Sequence[int]:
        """Live ids sharing the row's prefix whose digit differs from
        *digit* -- the owners of cell (row, *digit*), ascending: the
        prefix range of the ring minus the digit group's subrange."""
        ids = self.network._live_sorted
        space = self.space
        if row == 0:
            range_lo, range_hi = 0, len(ids)
        else:
            shift = space.bits - row * space.b
            low_id = prefix << shift
            range_lo = bisect_left(ids, low_id)
            range_hi = bisect_left(ids, low_id + (1 << shift))
        group_lo, group_hi = self._group_slice(row, prefix, digit)
        return ids[range_lo:group_lo] + ids[group_hi:range_hi]

    def _window_ids(
        self, center_index: int, half: int, exclude: Optional[int] = None
    ) -> List[int]:
        """Ids within *half* ring positions of *center_index* (both
        directions, wrapping), sorted; *exclude* is dropped if present."""
        ids = self.network._live_sorted
        count = len(ids)
        reach = min(half, count - 1) if count > 1 else 0
        window: Set[int] = set()
        for offset in range(-reach, reach + 1):
            window.add(ids[(center_index + offset) % count])
        if exclude is not None:
            window.discard(exclude)
        return sorted(window)

    # ------------------------------------------------------------------ #
    # per-node reconstruction (identical to the rebuild's loops)
    # ------------------------------------------------------------------ #

    def _rebuild_leaf(self, node_id: int) -> None:
        """Fresh leaf set off the current ring -- the rebuild's loop run
        for one node."""
        net = self.network
        ids = net._live_sorted
        count = len(ids)
        node = net.nodes[node_id]
        leaf = type(node.state.leaf_set)(self.space, node_id, net.leaf_capacity)
        node.state.leaf_set = leaf
        if count:
            leaf.seed_from_ring(ids, bisect_left(ids, node_id))

    def _rebuild_own_state(self, node: PastryNode, index: int, max_rows: int) -> None:
        """Fresh leaf set and routing table for a joining/revived node
        (any retained state is stale by definition)."""
        self._rebuild_leaf(node.node_id)
        node.state.routing_table = type(node.state.routing_table)(
            self.space, node.node_id
        )
        for row in range(max_rows):
            self._fill_row(node, row)

    def _fill_row(self, node: PastryNode, row: int) -> bool:
        """Populate every cell of *row* from the ring groups; True if any
        cell was filled."""
        space = self.space
        node_id = node.node_id
        prefix = space.prefix(node_id, row)
        own_digit = space.digit(node_id, row)
        table = node.state.routing_table
        filled = False
        for col in range(space.base):
            if col == own_digit:
                continue
            lo, hi = self._group_slice(row, prefix, col)
            if lo >= hi:
                continue
            table.install(row, col, self._pick(node, lo, hi))
            filled = True
        return filled

    # ------------------------------------------------------------------ #
    # cell decisions
    # ------------------------------------------------------------------ #

    def _pick(self, node: PastryNode, lo: int, hi: int) -> int:
        """Choose the cell entry from the ring slice [lo, hi).

        Perfect quality replicates the rebuild's deterministic pick (min
        by proximity, ties to the smaller id) without materialising the
        slice; sampled qualities delegate to the network's picker with
        the maintainer's own RNG stream.
        """
        net = self.network
        ids = net._live_sorted
        if net.table_quality == TABLE_QUALITY_PERFECT:
            distance = node._proximity
            best = ids[lo]
            best_distance = distance(best)
            for index in range(lo + 1, hi):
                candidate = ids[index]
                d = distance(candidate)
                if d < best_distance:
                    best_distance = d
                    best = candidate
            return best
        return net._pick_table_entry(node, list(ids[lo:hi]), self._rng)

    # ------------------------------------------------------------------ #
    # neighborhood invariant
    # ------------------------------------------------------------------ #

    def _rebuild_window(
        self, center_index: int, reseed: Set[int], exclude: Optional[int] = None
    ) -> None:
        """Rebuild the leaf sets within l/2 ring positions of
        *center_index* and move each M by the pool change: leaf members
        gained or lost, less the ids the table holds either way."""
        nodes = self.network.nodes
        for node_id in self._window_ids(
            center_index, self.network.leaf_capacity // 2, exclude=exclude
        ):
            node = nodes[node_id]
            old = node.state.leaf_set.members()
            self._rebuild_leaf(node_id)
            if node_id in reseed:
                continue
            new = node.state.leaf_set.members()
            table = node.state.routing_table
            left = [member for member in old - new if member not in table]
            entered = [(node._proximity(member), member)
                       for member in new - old if member not in table]
            if not node.state.neighborhood.replace(left, entered):
                reseed.add(node_id)

    def _reseed(self, reseed: Set[int]) -> None:
        """Re-rank the neighborhood set of every node in *reseed* from
        its leaf set and routing table (M is a pure function of those
        two)."""
        nodes = self.network.nodes
        batch_distance = self.network.topology.batch_distance
        for node_id in sorted(reseed):
            nodes[node_id].state.reseed_neighborhood(batch_distance(node_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IncrementalOracle(nodes={self.network.live_count()})"
