"""Ring-buffered windowed time-series over the metrics registry.

The registry (:mod:`repro.obs.metrics`) answers "what happened so far";
this module adds the temporal axis: a :class:`TimeSeriesRecorder`
periodically *samples* a registry and files what changed into
fixed-width time windows, keeping the most recent ``capacity`` windows
per series in a ring.

Determinism rules, enforced by construction:

* **No wall clock.**  Every sample takes an explicit ``at`` timestamp --
  the simulation engine's clock in chaos runs, the instant a telemetry
  collector's caller names over the live wire.  Two seeded runs that
  sample at the same logical instants produce byte-identical
  snapshots.
* **Windows are integer indices** (``int(at / window)``).

What lands in a window:

* **counters** -- the per-window *delta* (increment observed since the
  previous sample), accumulated when one window is sampled twice;
* **gauges** -- the last sampled value (a level, not a rate);
* **histograms** -- the new samples that appeared since the previous
  sample, kept verbatim (sorted), so per-window percentiles are exact.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

#: Default window width in (logical) seconds and ring depth.  64 windows
#: at 10s covers a ten-minute live run or a 640-sim-second chaos run.
DEFAULT_WINDOW = 10.0
DEFAULT_CAPACITY = 64

SERIES_COUNTER = "counter"
SERIES_GAUGE = "gauge"


class WindowedSeries:
    """One instrument's ring of per-window scalar points."""

    __slots__ = ("name", "kind", "capacity", "_points")

    def __init__(self, name: str, kind: str,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if kind not in (SERIES_COUNTER, SERIES_GAUGE):
            raise ValueError(f"unknown series kind {kind!r}")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.name = name
        self.kind = kind
        self.capacity = capacity
        self._points: Dict[int, float] = {}

    def observe(self, index: int, value: float) -> None:
        """File *value* under window *index*.

        Counter series accumulate (two samples inside one window add
        their deltas); gauge series keep the last value.
        """
        if self.kind == SERIES_COUNTER:
            self._points[index] = self._points.get(index, 0.0) + value
        else:
            self._points[index] = value
        while len(self._points) > self.capacity:
            del self._points[min(self._points)]

    def windows(self) -> List[Tuple[int, float]]:
        return sorted(self._points.items())

    def latest_index(self) -> Optional[int]:
        return max(self._points) if self._points else None

    def total(self) -> float:
        """Sum over the retained ring (meaningful for counter series)."""
        return sum(self._points.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WindowedSeries({self.name!r}, {self.kind}, n={len(self._points)})"


class WindowedHistogram:
    """One histogram's ring of per-window sample batches.

    Samples are kept verbatim (sorted per window), so any statistic the
    flat :class:`~repro.obs.metrics.Histogram` computes is recoverable
    per window.
    """

    __slots__ = ("name", "capacity", "_windows")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._windows: Dict[int, List[float]] = {}

    def extend(self, index: int, samples: Iterable[float]) -> None:
        batch = [float(sample) for sample in samples]
        if not batch:
            return
        window = self._windows.setdefault(index, [])
        window.extend(batch)
        window.sort()
        while len(self._windows) > self.capacity:
            del self._windows[min(self._windows)]

    def windows(self) -> List[Tuple[int, List[float]]]:
        return [(index, list(samples))
                for index, samples in sorted(self._windows.items())]

    def latest_index(self) -> Optional[int]:
        return max(self._windows) if self._windows else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WindowedHistogram({self.name!r}, n={len(self._windows)})"


class TimeSeriesRecorder:
    """Samples a :class:`MetricsRegistry` into windowed series.

    ``sample(metrics, at)`` diffs the registry against the previous
    sample: counter increments and fresh histogram samples are filed
    into window ``int(at / window)``; gauges record their level.  The
    caller owns the clock -- the recorder never reads one.
    """

    def __init__(self, window: float = DEFAULT_WINDOW,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.capacity = capacity
        self._series: Dict[str, WindowedSeries] = {}
        self._histograms: Dict[str, WindowedHistogram] = {}
        # Last cumulative counter value / consumed histogram sample
        # count, keyed by display name -- the diffing state.
        self._counter_totals: Dict[str, float] = {}
        self._consumed: Dict[str, int] = {}
        self.samples_taken = 0

    def window_index(self, at: float) -> int:
        return int(float(at) / self.window)

    def latest_index(self) -> Optional[int]:
        indices = [series.latest_index() for series in self._series.values()]
        indices += [hist.latest_index() for hist in self._histograms.values()]
        known = [index for index in indices if index is not None]
        return max(known) if known else None

    def _scalar_series(self, name: str, kind: str) -> WindowedSeries:
        series = self._series.get(name)
        if series is None:
            series = WindowedSeries(name, kind, capacity=self.capacity)
            self._series[name] = series
        return series

    def sample(self, metrics: MetricsRegistry, at: float) -> int:
        """Diff *metrics* against the previous sample into the window
        covering *at*; returns the window index sampled into."""
        index = self.window_index(at)
        for name, value in metrics.counters():
            previous = self._counter_totals.get(name, 0.0)
            self._counter_totals[name] = float(value)
            self._scalar_series(name, SERIES_COUNTER).observe(
                index, float(value) - previous
            )
        for name, value in metrics.gauges():
            self._scalar_series(name, SERIES_GAUGE).observe(index, float(value))
        for name, histogram in metrics.histograms():
            consumed = self._consumed.get(name, 0)
            fresh = histogram.samples[consumed:]
            self._consumed[name] = len(histogram.samples)
            if fresh:
                windowed = self._histograms.get(name)
                if windowed is None:
                    windowed = WindowedHistogram(name, capacity=self.capacity)
                    self._histograms[name] = windowed
                windowed.extend(index, fresh)
        self.samples_taken += 1
        return index

    def counter_windows(self, name: str) -> List[Tuple[int, float]]:
        series = self._series.get(name)
        if series is None or series.kind != SERIES_COUNTER:
            return []
        return series.windows()

    def snapshot(self) -> dict:
        """A plain-JSON dump of every retained window, sorted (hence
        byte-deterministic)."""
        counters: Dict[str, List[List[float]]] = {}
        gauges: Dict[str, List[List[float]]] = {}
        for name in sorted(self._series):
            series = self._series[name]
            (counters if series.kind == SERIES_COUNTER else gauges)[name] = [
                [index, value] for index, value in series.windows()]
        histograms: Dict[str, List[list]] = {
            name: [[index, samples]
                   for index, samples in self._histograms[name].windows()]
            for name in sorted(self._histograms)
        }
        latest = self.latest_index()
        return {
            "window_seconds": self.window,
            "capacity": self.capacity,
            "latest_index": latest if latest is not None else -1,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
