"""Unit tests for topologies, proximity helpers, and latency models."""

import random

import pytest

from repro.netsim.latency import ProximityLatency, UniformLatency
from repro.netsim.proximity import k_nearest, nearest, rank_by_proximity, route_stretch
from repro.netsim.topology import EuclideanPlaneTopology, RandomGraphTopology

TOPOLOGY_FACTORIES = [
    lambda rng: EuclideanPlaneTopology(rng),
    lambda rng: RandomGraphTopology(rng, routers=50),
]


@pytest.mark.parametrize("factory", TOPOLOGY_FACTORIES)
class TestTopologyContract:
    """Properties every topology must satisfy."""

    def test_distance_symmetric(self, factory):
        topo = factory(random.Random(1))
        for address in range(10):
            topo.add_endpoint(address)
        for a in range(10):
            for b in range(10):
                assert topo.distance(a, b) == pytest.approx(topo.distance(b, a))

    def test_distance_to_self_zero(self, factory):
        topo = factory(random.Random(1))
        topo.add_endpoint(0)
        assert topo.distance(0, 0) == 0.0

    def test_distance_nonnegative(self, factory):
        topo = factory(random.Random(1))
        for address in range(10):
            topo.add_endpoint(address)
        assert all(topo.distance(a, b) >= 0 for a in range(10) for b in range(10))

    def test_duplicate_endpoint_rejected(self, factory):
        topo = factory(random.Random(1))
        topo.add_endpoint(0)
        with pytest.raises(ValueError):
            topo.add_endpoint(0)

    def test_remove_endpoint(self, factory):
        topo = factory(random.Random(1))
        topo.add_endpoint(0)
        topo.remove_endpoint(0)
        topo.add_endpoint(0)  # re-adding after removal works

    def test_path_distance_sums_hops(self, factory):
        topo = factory(random.Random(1))
        for address in range(3):
            topo.add_endpoint(address)
        expected = topo.distance(0, 1) + topo.distance(1, 2)
        assert topo.path_distance([0, 1, 2]) == pytest.approx(expected)


class TestEuclideanPlane:
    def test_triangle_inequality(self):
        topo = EuclideanPlaneTopology(random.Random(2))
        for address in range(20):
            topo.add_endpoint(address)
        for a in range(10):
            for b in range(10):
                for c in range(10):
                    assert topo.distance(a, c) <= topo.distance(a, b) + topo.distance(b, c) + 1e-9

    def test_points_inside_square(self):
        topo = EuclideanPlaneTopology(random.Random(2), side=10.0)
        for address in range(50):
            topo.add_endpoint(address)
            x, y = topo.position(address)
            assert 0 <= x < 10 and 0 <= y < 10

    def test_invalid_side_rejected(self):
        with pytest.raises(ValueError):
            EuclideanPlaneTopology(random.Random(0), side=0)


class TestRandomGraph:
    def test_connected(self):
        """Every pair of endpoints has finite distance (ring guarantees it)."""
        topo = RandomGraphTopology(random.Random(4), routers=30)
        for address in range(20):
            topo.add_endpoint(address)
        for a in range(20):
            for b in range(20):
                assert topo.distance(a, b) < float("inf")

    def test_distance_integral_hops(self):
        topo = RandomGraphTopology(random.Random(4), routers=30)
        topo.add_endpoint(0)
        topo.add_endpoint(1)
        assert topo.distance(0, 1) == int(topo.distance(0, 1))


class TestProximityHelpers:
    @pytest.fixture()
    def plane(self):
        topo = EuclideanPlaneTopology(random.Random(5))
        for address in range(20):
            topo.add_endpoint(address)
        return topo

    def test_nearest_is_minimum(self, plane):
        best = nearest(plane, 0, range(1, 20))
        assert best is not None
        assert all(plane.distance(0, best) <= plane.distance(0, c) for c in range(1, 20))

    def test_nearest_of_empty_is_none(self, plane):
        assert nearest(plane, 0, []) is None

    def test_rank_sorted(self, plane):
        ranked = rank_by_proximity(plane, 0, range(1, 20))
        distances = [plane.distance(0, c) for c in ranked]
        assert distances == sorted(distances)

    def test_k_nearest_prefix_of_rank(self, plane):
        assert k_nearest(plane, 0, range(1, 20), 5) == rank_by_proximity(plane, 0, range(1, 20))[:5]

    def test_k_nearest_negative_rejected(self, plane):
        with pytest.raises(ValueError):
            k_nearest(plane, 0, range(1, 20), -1)

    def test_route_stretch_at_least_one_on_plane(self, plane):
        # Triangle inequality holds on the plane, so stretch >= 1.
        assert route_stretch(plane, [0, 5, 9]) >= 1.0 - 1e-9

    def test_route_stretch_direct_route_is_one(self, plane):
        assert route_stretch(plane, [0, 9]) == pytest.approx(1.0)

    def test_route_stretch_degenerate(self, plane):
        assert route_stretch(plane, [0]) == 1.0


class TestLatencyModels:
    def test_uniform_constant(self):
        model = UniformLatency(base=2.0)
        assert model.delay(1, 2) == 2.0
        assert model.delay(1, 1) == 0.0

    def test_uniform_jitter_requires_rng(self):
        with pytest.raises(ValueError):
            UniformLatency(base=1.0, jitter=0.5)

    def test_uniform_jitter_bounds(self):
        model = UniformLatency(base=1.0, jitter=0.5, rng=random.Random(1))
        for _ in range(100):
            assert 1.0 <= model.delay(1, 2) <= 1.5

    def test_proximity_latency_scales_with_distance(self):
        topo = EuclideanPlaneTopology(random.Random(6))
        for address in range(5):
            topo.add_endpoint(address)
        model = ProximityLatency(topo, scale=0.1, fixed=1.0)
        assert model.delay(0, 1) == pytest.approx(1.0 + 0.1 * topo.distance(0, 1))
        assert model.delay(0, 0) == 0.0

    def test_proximity_latency_rejects_all_zero(self):
        topo = EuclideanPlaneTopology(random.Random(6))
        with pytest.raises(ValueError):
            ProximityLatency(topo, scale=0.0, fixed=0.0)
