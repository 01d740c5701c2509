"""Unit coverage for the windowed time-series layer.

The determinism contracts the telemetry plane leans on, pinned one by
one: counter windows accumulate deltas, gauges keep levels, histogram
windows keep exact samples, rings evict oldest-first, and snapshots
are byte-deterministic.
"""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    TimeSeriesRecorder,
    WindowedHistogram,
    WindowedSeries,
)


class TestWindowedSeries:
    def test_counter_accumulates_within_a_window(self):
        series = WindowedSeries("c", "counter")
        series.observe(3, 2.0)
        series.observe(3, 5.0)
        assert series.windows() == [(3, 7.0)]
        assert series.total() == 7.0

    def test_gauge_keeps_the_last_level(self):
        series = WindowedSeries("g", "gauge")
        series.observe(3, 2.0)
        series.observe(3, 5.0)
        assert series.windows() == [(3, 5.0)]

    def test_ring_evicts_the_oldest_window(self):
        series = WindowedSeries("c", "counter", capacity=2)
        for index in (1, 2, 3):
            series.observe(index, 1.0)
        assert series.windows() == [(2, 1.0), (3, 1.0)]
        assert series.latest_index() == 3

    def test_rejects_bad_kind_and_capacity(self):
        with pytest.raises(ValueError):
            WindowedSeries("x", "summary")
        with pytest.raises(ValueError):
            WindowedSeries("x", "counter", capacity=0)


class TestWindowedHistogram:
    def test_windows_keep_sorted_exact_samples(self):
        histogram = WindowedHistogram("h")
        histogram.extend(0, [5.0, 1.0])
        histogram.extend(0, [3.0])
        assert histogram.windows() == [(0, [1.0, 3.0, 5.0])]


def _registry():
    return MetricsRegistry()


class TestTimeSeriesRecorder:
    def test_counter_windows_hold_per_window_deltas(self):
        metrics = _registry()
        recorder = TimeSeriesRecorder(window=10.0)
        metrics.counter("ops").increment(3)
        recorder.sample(metrics, at=0.0)
        metrics.counter("ops").increment(2)
        recorder.sample(metrics, at=25.0)
        assert recorder.counter_windows("ops") == [(0, 3.0), (2, 2.0)]

    def test_resampling_one_window_accumulates_deltas(self):
        metrics = _registry()
        recorder = TimeSeriesRecorder(window=10.0)
        metrics.counter("ops").increment(3)
        recorder.sample(metrics, at=1.0)
        metrics.counter("ops").increment(4)
        recorder.sample(metrics, at=9.0)
        assert recorder.counter_windows("ops") == [(0, 7.0)]

    def test_gauges_record_levels_histograms_fresh_samples(self):
        metrics = _registry()
        recorder = TimeSeriesRecorder(window=10.0)
        metrics.gauge("depth").set(4.0)
        metrics.histogram("lat").add(5.0)
        metrics.histogram("lat").add(1.0)
        recorder.sample(metrics, at=0.0)
        metrics.gauge("depth").set(2.0)
        metrics.histogram("lat").add(3.0)
        recorder.sample(metrics, at=10.0)
        snapshot = recorder.snapshot()
        assert snapshot["gauges"]["depth"] == [[0, 4.0], [1, 2.0]]
        # Only the *fresh* sample lands in window 1.
        assert snapshot["histograms"]["lat"] == [[0, [1.0, 5.0]], [1, [3.0]]]

    def test_snapshot_bytes_are_deterministic(self):
        def build():
            metrics = _registry()
            recorder = TimeSeriesRecorder(window=5.0)
            for step in range(4):
                metrics.counter("ops", op="store").increment(step)
                metrics.histogram("lat").add(float(step))
                recorder.sample(metrics, at=step * 5.0)
            return json.dumps(recorder.snapshot(), sort_keys=True)

        assert build() == build()
