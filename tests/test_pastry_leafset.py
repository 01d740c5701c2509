"""Unit and property tests for the leaf set."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pastry.leaf_set import LeafSet
from repro.pastry.nodeid import IdSpace

SMALL = IdSpace(16, 4)

ids_16 = st.integers(min_value=0, max_value=(1 << 16) - 1)


def make_leafset(owner=1000, capacity=8):
    return LeafSet(SMALL, owner, capacity)


class TestConstruction:
    def test_capacity_must_be_even(self):
        with pytest.raises(ValueError):
            LeafSet(SMALL, 0, 7)

    def test_capacity_minimum(self):
        with pytest.raises(ValueError):
            LeafSet(SMALL, 0, 0)

    def test_owner_validated(self):
        with pytest.raises(ValueError):
            LeafSet(SMALL, 1 << 16, 8)


class TestMembership:
    def test_owner_never_member(self):
        ls = make_leafset()
        assert not ls.add(1000)
        assert 1000 not in ls

    def test_add_and_contains(self):
        ls = make_leafset()
        assert ls.add(1005)
        assert 1005 in ls

    def test_remove(self):
        ls = make_leafset()
        ls.add(1005)
        assert ls.remove(1005)
        assert 1005 not in ls
        assert not ls.remove(1005)

    def test_sides_ordered_nearest_first(self):
        ls = make_leafset()
        for node in (1030, 1010, 1020):
            ls.add(node)
        assert ls.larger_side() == [1010, 1020, 1030]

    def test_smaller_side_ordered(self):
        ls = make_leafset()
        for node in (970, 990, 980):
            ls.add(node)
        assert ls.smaller_side() == [990, 980, 970]

    def test_capacity_enforced_per_side(self):
        ls = make_leafset(capacity=4)  # 2 per side
        for node in (1001, 1002, 1003):
            ls.add(node)
        assert ls.larger_side() == [1001, 1002]

    def test_closer_node_evicts_farther(self):
        ls = make_leafset(capacity=4)
        ls.add(1010)
        ls.add(1020)
        assert ls.add(1005)
        assert ls.larger_side() == [1005, 1010]
        assert 1020 not in ls.larger_side()

    def test_node_can_be_on_both_sides_in_small_network(self):
        """With few nodes and wraparound, the same node is among the
        closest on both sides -- normal and handled."""
        ls = LeafSet(SMALL, 0, 8)
        ls.add(100)
        assert 100 in ls.larger_side()
        assert 100 in ls.smaller_side()
        assert len(ls) == 1  # members() deduplicates

    def test_wraparound_ordering(self):
        ls = LeafSet(SMALL, 10, 4)
        ls.add(65530)  # clockwise offset 65520; ccw offset 16 -> near smaller side
        ls.add(5)
        assert ls.smaller_side() == [5, 65530]


class TestCoverage:
    def test_not_full_covers_everything(self):
        ls = make_leafset(capacity=8)
        ls.add(1001)
        assert ls.covers(40000)

    def test_full_covers_range_only(self):
        ls = make_leafset(capacity=4)
        for node in (990, 995, 1005, 1010):
            ls.add(node)
        assert ls.covers(1000)
        assert ls.covers(992)
        assert ls.covers(1008)
        assert not ls.covers(40000)
        assert not ls.covers(980)

    def test_boundary_inclusive(self):
        ls = make_leafset(capacity=4)
        for node in (990, 995, 1005, 1010):
            ls.add(node)
        assert ls.covers(990)
        assert ls.covers(1010)


class TestClosestTo:
    def test_includes_owner(self):
        ls = make_leafset()
        ls.add(1100)
        assert ls.closest_to(1001) == 1000

    def test_excludes_owner_when_asked(self):
        ls = make_leafset()
        ls.add(1100)
        assert ls.closest_to(1001, include_owner=False) == 1100


class TestReplicaCandidates:
    def test_returns_k_closest(self):
        ls = make_leafset(capacity=8)
        for node in (990, 995, 1005, 1010, 980, 1020):
            ls.add(node)
        got = ls.replica_candidates(1002, 3)
        assert got == [1000, 1005, 995]

    def test_k_bound_enforced(self):
        ls = make_leafset(capacity=8)
        with pytest.raises(ValueError):
            ls.replica_candidates(0, 6)  # > half + 1 = 5
        with pytest.raises(ValueError):
            ls.replica_candidates(0, 0)

    def test_includes_owner_when_closest(self):
        ls = make_leafset(capacity=8)
        ls.add(2000)
        assert ls.replica_candidates(1000, 1) == [1000]

    @given(st.sets(ids_16, min_size=5, max_size=20), ids_16)
    @settings(max_examples=50)
    def test_candidates_are_truly_closest(self, members, key):
        owner = 1000
        members.discard(owner)
        ls = LeafSet(SMALL, owner, 32)
        for m in members:
            ls.add(m)
        pool = ls.members() | {owner}
        got = ls.replica_candidates(key, 3)
        worst = max(SMALL.distance(n, key) for n in got)
        better = [n for n in pool if SMALL.distance(n, key) < worst]
        # No more than k-1 pool nodes can be strictly closer than the
        # worst chosen one (otherwise the choice missed someone).
        assert len(better) <= 2


class TestLeafSetInvariantProperty:
    @given(st.sets(ids_16, min_size=1, max_size=60))
    @settings(max_examples=50)
    def test_sides_hold_the_truly_closest(self, nodes):
        """After offering any node population, each side holds exactly the
        capacity/2 nodes with the smallest offsets on that side."""
        owner = 4242
        nodes.discard(owner)
        ls = LeafSet(SMALL, owner, 8)
        for node in nodes:
            ls.add(node)
        by_cw = sorted(nodes, key=lambda n: SMALL.clockwise_offset(owner, n))
        by_ccw = sorted(nodes, key=lambda n: SMALL.counter_clockwise_offset(owner, n))
        assert ls.larger_side() == by_cw[:4]
        assert ls.smaller_side() == by_ccw[:4]
