"""Unit tests for the routing table and neighborhood set."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pastry.neighborhood import NeighborhoodSet
from repro.pastry.nodeid import IdSpace
from repro.pastry.routing_table import RoutingTable

SMALL = IdSpace(16, 4)
OWNER = 0xA5C3

ids_16 = st.integers(min_value=0, max_value=(1 << 16) - 1)


class TestSlotAssignment:
    def test_owner_has_no_slot(self):
        table = RoutingTable(SMALL, OWNER)
        assert table.slot_for(OWNER) is None

    def test_row_is_shared_prefix_length(self):
        table = RoutingTable(SMALL, OWNER)
        assert table.slot_for(0xB000) == (0, 0xB)
        assert table.slot_for(0xA000) == (1, 0x0)
        assert table.slot_for(0xA500) == (2, 0x0)
        assert table.slot_for(0xA5C0) == (3, 0x0)

    def test_add_places_in_slot(self):
        table = RoutingTable(SMALL, OWNER)
        assert table.add(0xB123)
        assert table.lookup(0, 0xB) == 0xB123

    def test_add_owner_refused(self):
        table = RoutingTable(SMALL, OWNER)
        assert not table.add(OWNER)

    def test_incumbent_kept_without_proximity(self):
        table = RoutingTable(SMALL, OWNER)
        table.add(0xB111)
        assert not table.add(0xB222)
        assert table.lookup(0, 0xB) == 0xB111

    def test_proximity_replaces_incumbent(self):
        table = RoutingTable(SMALL, OWNER)
        distances = {0xB111: 10.0, 0xB222: 1.0}
        table.add(0xB111, distances.get)
        assert table.add(0xB222, distances.get)
        assert table.lookup(0, 0xB) == 0xB222

    def test_proximity_keeps_closer_incumbent(self):
        table = RoutingTable(SMALL, OWNER)
        distances = {0xB111: 1.0, 0xB222: 10.0}
        table.add(0xB111, distances.get)
        assert not table.add(0xB222, distances.get)

    def test_re_adding_same_node_is_true(self):
        table = RoutingTable(SMALL, OWNER)
        table.add(0xB111)
        assert table.add(0xB111)


class TestRemoval:
    def test_remove_clears_slot(self):
        table = RoutingTable(SMALL, OWNER)
        table.add(0xB111)
        assert table.remove(0xB111)
        assert table.lookup(0, 0xB) is None
        assert 0xB111 not in table

    def test_remove_absent_false(self):
        table = RoutingTable(SMALL, OWNER)
        assert not table.remove(0xB111)


class TestNextHop:
    def test_uses_prefix_row(self):
        table = RoutingTable(SMALL, OWNER)
        table.add(0xA7FF)  # row 1, col 7
        assert table.next_hop_for(0xA700) == 0xA7FF

    def test_vacant_slot_returns_none(self):
        table = RoutingTable(SMALL, OWNER)
        assert table.next_hop_for(0xA700) is None

    def test_key_equal_owner_returns_none(self):
        table = RoutingTable(SMALL, OWNER)
        assert table.next_hop_for(OWNER) is None

    def test_next_hop_shares_longer_prefix(self):
        """The defining invariant: the chosen entry shares at least one
        more digit with the key than the owner does."""
        rng = random.Random(1)
        table = RoutingTable(SMALL, OWNER)
        for _ in range(200):
            table.add(rng.getrandbits(16))
        for _ in range(100):
            key = rng.getrandbits(16)
            hop = table.next_hop_for(key)
            if hop is not None:
                own = SMALL.shared_prefix_length(OWNER, key)
                assert SMALL.shared_prefix_length(hop, key) >= own + 1


class TestRowOperations:
    def test_row_copy(self):
        table = RoutingTable(SMALL, OWNER)
        table.add(0xB111)
        row = table.row(0)
        row[0] = 0xDEAD  # mutating the copy must not affect the table
        assert table.lookup(0, 0xB) == 0xB111

    def test_install_row_reslots_entries(self):
        """Entries from another node's row are re-slotted for this owner,
        not installed blindly."""
        table = RoutingTable(SMALL, OWNER)
        # 0xA511 shares 2 digits with owner 0xA5C3 -> belongs in row 2.
        taken = table.install_row(0, [0xA511, None, 0xB123], None)
        assert taken == 2
        assert table.lookup(2, 0x1) == 0xA511
        assert table.lookup(0, 0xB) == 0xB123

    def test_row_entries(self):
        table = RoutingTable(SMALL, OWNER)
        table.add(0xB111)
        table.add(0xC222)
        assert set(table.row_entries(0)) == {0xB111, 0xC222}


class TestInvariants:
    @given(st.sets(ids_16, max_size=100))
    @settings(max_examples=50)
    def test_invariants_after_any_population(self, nodes):
        table = RoutingTable(SMALL, OWNER)
        for node in nodes:
            table.add(node)
        table.check_invariants()

    @given(st.sets(ids_16, min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_len_matches_entries(self, nodes):
        table = RoutingTable(SMALL, OWNER)
        for node in nodes:
            table.add(node)
        assert len(table) == len(list(table.entries()))

    def test_populated_rows_and_occupancy(self):
        table = RoutingTable(SMALL, OWNER)
        table.add(0xB111)
        table.add(0xA012)
        assert table.populated_rows() == 2
        occupancy = table.occupancy()
        assert occupancy[0] == 1 and occupancy[1] == 1


class TestNeighborhoodSet:
    def make(self, capacity=4):
        distances = {}
        ns = NeighborhoodSet(0, lambda n: distances.get(n, 1e9), capacity)
        return ns, distances

    def test_ordered_by_proximity(self):
        ns, d = self.make()
        d.update({1: 5.0, 2: 1.0, 3: 3.0})
        for node in (1, 2, 3):
            ns.add(node)
        assert ns.ordered_members() == [2, 3, 1]

    def test_capacity_evicts_farthest(self):
        ns, d = self.make(capacity=2)
        d.update({1: 5.0, 2: 1.0, 3: 3.0})
        for node in (1, 2, 3):
            ns.add(node)
        assert ns.members() == {2, 3}

    def test_owner_refused(self):
        ns, _ = self.make()
        assert not ns.add(0)

    def test_nearest(self):
        ns, d = self.make()
        d.update({1: 5.0, 2: 1.0})
        ns.add(1)
        ns.add(2)
        assert ns.nearest() == 2

    def test_nearest_empty_raises(self):
        ns, _ = self.make()
        with pytest.raises(ValueError):
            ns.nearest()

    def test_remove(self):
        ns, d = self.make()
        d[1] = 1.0
        ns.add(1)
        assert ns.remove(1)
        assert not ns.remove(1)
        assert len(ns) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            NeighborhoodSet(0, lambda n: 0.0, 0)

    def test_replace_swaps_a_member_for_an_entrant_ranked_ahead_of_the_last(self):
        ns, _ = self.make(capacity=3)
        ns.bulk_load([(1.0, 1), (2.0, 2), (3.0, 3)])
        assert ns.replace([2], [(2.5, 7)])
        assert ns.ordered_members() == [1, 7, 3]

    def test_replace_refuses_when_the_pool_beyond_m_is_needed(self):
        ns, _ = self.make(capacity=3)
        ns.bulk_load([(1.0, 1), (2.0, 2), (3.0, 3)])
        version = ns.version
        # 7 ranks after the last member: an unseen pool id might beat it.
        assert not ns.replace([2], [(4.0, 7)])
        assert ns.ordered_members() == [1, 2, 3]
        assert ns.version == version

    def test_replace_below_capacity_needs_no_entrant(self):
        ns, _ = self.make(capacity=4)
        ns.bulk_load([(1.0, 1), (2.0, 2)])
        assert ns.replace([1, 9], [])  # 9 left the pool but was never in M
        assert ns.ordered_members() == [2]

    def test_replace_ranks_distance_ties_by_id_and_evicts_the_last(self):
        ns, _ = self.make(capacity=3)
        ns.bulk_load([(1.0, 1), (2.0, 5), (3.0, 3)])
        assert ns.replace([], [(2.0, 4), (2.0, 6)])
        assert ns.ordered_members() == [1, 4, 5]
