"""Unit tests for the synthetic workload generators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.capacities import bounded_normal_capacities
from repro.workloads.churn import (
    ARRIVAL,
    DEPARTURE,
    ChurnEvent,
    poisson_churn_schedule,
)
from repro.workloads.filesizes import LognormalSizes, ParetoSizes, TraceLikeSizes
from repro.workloads.popularity import ZipfPopularity


class TestFileSizes:
    def test_lognormal_median_approx(self):
        rng = random.Random(1)
        dist = LognormalSizes(median=8192, sigma=1.0)
        samples = sorted(dist.sample_many(rng, 4000))
        median = samples[len(samples) // 2]
        assert 6000 < median < 11000

    def test_lognormal_all_positive(self):
        rng = random.Random(2)
        assert all(s >= 1 for s in LognormalSizes().sample_many(rng, 1000))

    def test_lognormal_cap(self):
        rng = random.Random(3)
        dist = LognormalSizes(median=8192, sigma=2.0, cap=10_000)
        assert all(s <= 10_000 for s in dist.sample_many(rng, 1000))

    def test_lognormal_validation(self):
        with pytest.raises(ValueError):
            LognormalSizes(median=0)
        with pytest.raises(ValueError):
            LognormalSizes(sigma=0)

    def test_pareto_minimum_respected(self):
        rng = random.Random(4)
        dist = ParetoSizes(minimum=1024, alpha=1.2)
        assert all(s >= 1024 for s in dist.sample_many(rng, 1000))

    def test_pareto_heavy_tail(self):
        """Pareto(1.2) produces samples far beyond the minimum."""
        rng = random.Random(5)
        samples = ParetoSizes(minimum=1024, alpha=1.2).sample_many(rng, 4000)
        assert max(samples) > 1024 * 50

    def test_pareto_cap(self):
        rng = random.Random(6)
        dist = ParetoSizes(minimum=1024, alpha=1.1, cap=100_000)
        assert all(s <= 100_000 for s in dist.sample_many(rng, 1000))

    def test_trace_like_mixture(self):
        rng = random.Random(7)
        dist = TraceLikeSizes(median=8192, tail_fraction=0.05, tail_minimum=262144)
        samples = dist.sample_many(rng, 4000)
        tail = sum(1 for s in samples if s >= 262144)
        # Roughly 5% of samples come from the tail component.
        assert 0.02 < tail / len(samples) < 0.12

    def test_trace_like_validation(self):
        with pytest.raises(ValueError):
            TraceLikeSizes(tail_fraction=1.0)


class TestCapacities:
    def test_bounded_normal_within_ratio(self):
        draw = bounded_normal_capacities(1000, stddev_fraction=0.8,
                                         min_ratio=0.5, max_ratio=2.0)
        rng = random.Random(9)
        for _ in range(500):
            value = draw(rng)
            assert 500 <= value <= 2000

    def test_bounded_normal_validation(self):
        with pytest.raises(ValueError):
            bounded_normal_capacities(1000, min_ratio=1.5)


class TestZipf:
    def test_probabilities_sum_to_one(self):
        zipf = ZipfPopularity(50, 1.0)
        total = sum(zipf.probability(r) for r in range(1, 51))
        assert total == pytest.approx(1.0)

    def test_rank_one_most_popular(self):
        zipf = ZipfPopularity(50, 1.0)
        assert zipf.probability(1) > zipf.probability(2) > zipf.probability(50)

    def test_exponent_zero_is_uniform(self):
        zipf = ZipfPopularity(10, 0.0)
        assert zipf.probability(1) == pytest.approx(zipf.probability(10))

    def test_sample_distribution_matches(self):
        zipf = ZipfPopularity(20, 1.0)
        rng = random.Random(10)
        counts = [0] * 21
        n = 20_000
        for _ in range(n):
            counts[zipf.sample_rank(rng)] += 1
        assert counts[1] / n == pytest.approx(zipf.probability(1), rel=0.15)
        assert counts[1] > counts[10] > 0

    def test_sample_items(self):
        zipf = ZipfPopularity(3, 1.0)
        rng = random.Random(11)
        assert zipf.sample(rng, ["a", "b", "c"]) in {"a", "b", "c"}
        with pytest.raises(ValueError):
            zipf.sample(rng, ["a"])

    def test_rank_bounds(self):
        zipf = ZipfPopularity(5, 1.0)
        with pytest.raises(ValueError):
            zipf.probability(0)
        with pytest.raises(ValueError):
            zipf.probability(6)

    @given(st.integers(min_value=1, max_value=200), st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=30)
    def test_sample_rank_always_valid(self, n, exponent):
        zipf = ZipfPopularity(n, exponent)
        rng = random.Random(42)
        for _ in range(20):
            assert 1 <= zipf.sample_rank(rng) <= n


class TestChurn:
    def test_schedule_sorted(self):
        rng = random.Random(13)
        events = poisson_churn_schedule(rng, duration=100, arrival_rate=0.5,
                                        departure_rate=0.5)
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_rates_respected(self):
        rng = random.Random(14)
        events = poisson_churn_schedule(rng, duration=2000, arrival_rate=1.0,
                                        departure_rate=0.25)
        arrivals = sum(1 for e in events if e.kind == ARRIVAL)
        departures = sum(1 for e in events if e.kind == DEPARTURE)
        assert arrivals == pytest.approx(2000, rel=0.15)
        assert departures == pytest.approx(500, rel=0.25)

    def test_zero_rate_means_no_events(self):
        rng = random.Random(15)
        events = poisson_churn_schedule(rng, duration=100, arrival_rate=0,
                                        departure_rate=0)
        assert events == []

    def test_event_validation(self):
        with pytest.raises(ValueError):
            ChurnEvent(time=1.0, kind="explosion")
        with pytest.raises(ValueError):
            ChurnEvent(time=-1.0, kind=ARRIVAL)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            poisson_churn_schedule(random.Random(0), duration=0, arrival_rate=1,
                                   departure_rate=1)
