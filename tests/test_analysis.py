"""Unit tests for statistics helpers, table rendering, and experiment
scaffolding."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import (
    FillReport,
    build_pastry,
    expected_hop_bound,
    fill_network,
    make_storage_network,
    sample_lookups,
)
from repro.analysis.stats import (
    coefficient_of_variation,
    mean,
    percentile,
    stddev,
    variance,
)
from repro.analysis.tables import format_table
from repro.core.storage_manager import StoragePolicy
from repro.workloads.filesizes import LognormalSizes


class TestStats:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2.0
        assert mean([]) == 0.0

    def test_variance_known(self):
        assert variance([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(32 / 7)

    def test_stddev_single_sample(self):
        assert stddev([5]) == 0.0

    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 100

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_coefficient_of_variation(self):
        assert coefficient_of_variation([5, 5, 5]) == 0.0
        assert coefficient_of_variation([]) == 0.0
        assert coefficient_of_variation([1, 9]) > 0.5

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=40))
    @settings(max_examples=30)
    def test_mean_bounded(self, values):
        assert min(values) - 1e-6 <= mean(values) <= max(values) + 1e-6


class TestTables:
    def test_renders_headers_and_rows(self):
        text = format_table(["n", "hops"], [[100, 1.87], [200, 2.3]])
        lines = text.splitlines()
        assert "n" in lines[0] and "hops" in lines[0]
        assert "1.870" in text and "2.300" in text

    def test_title(self):
        assert format_table(["a"], [[1]], title="T").startswith("=== T ===")

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_column_alignment(self):
        text = format_table(["col", "x"], [["looooong", 1]])
        lines = text.splitlines()
        assert lines[0].index("x") == lines[2].index("1")


class TestExperimentScaffolding:
    def test_build_pastry_deterministic(self):
        a = build_pastry(40, seed=5)
        b = build_pastry(40, seed=5)
        assert a.live_ids() == b.live_ids()

    def test_sample_lookups_shape(self):
        net = build_pastry(30, seed=6)
        rng = random.Random(0)
        pairs = sample_lookups(net, 50, rng)
        assert len(pairs) == 50
        live = set(net.live_ids())
        assert all(origin in live for _, origin in pairs)

    def test_expected_hop_bound(self):
        assert expected_hop_bound(4096, 4) == 3
        assert expected_hop_bound(100_000, 4) == 5

    def test_fill_network_saturates(self):
        net = make_storage_network(
            20, seed=7, policy=StoragePolicy(),
            capacity_fn=lambda r: 300_000,
        )
        report = fill_network(
            net, LognormalSizes(median=4096, sigma=1.0), random.Random(1),
            stop_reject_ratio=0.5, min_attempts=100,
        )
        assert report.inserted > 0
        assert report.rejected > 0
        final_util = net.utilization()["global_utilization"]
        assert final_util > 0.5
        assert report.utilization_curve  # curve was sampled

    def test_fill_report_ratio_at_utilization(self):
        report = FillReport()
        report.utilization_curve = [(0.5, 0.0), (0.9, 0.01), (0.96, 0.03)]
        assert report.reject_ratio_at_utilization(0.95) == 0.03
        assert report.reject_ratio_at_utilization(0.99) is None
