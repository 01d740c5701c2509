"""Named counters, gauges and histograms with labels.

The registry is the system's single accounting surface: protocol message
counters (claim C3), hop-count histograms (C1), storage rejections by
reason (C8/C9) and cache hits (C11) all land here, so every benchmark
reads the same instruments instead of keeping ad-hoc tallies.

Instruments are identified by ``(name, labels)``; looking one up twice
returns the same object.  Snapshots iterate in sorted order, so two runs
that record the same values produce byte-identical output -- traces are
diffable across seeded runs.  :meth:`MetricsRegistry.to_prometheus`
renders the standard text exposition for live (asyncio) nodes.

This module supersedes the old ``repro.sim.trace`` classes; the shim
module has been deleted after its deprecation cycle.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

LabelItems = Tuple[Tuple[str, str], ...]

_PROM_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _label_items(labels: Dict[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_instrument_name(name: str, labels: LabelItems) -> str:
    """Canonical display name: ``route.hops{category="lookup"}``."""
    if not labels:
        return name
    rendered = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{rendered}}}"


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str = "", labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    @property
    def display_name(self) -> str:
        return format_instrument_name(self.name, self.labels)

    def __repr__(self) -> str:
        return f"Counter({self.display_name!r}, {self.value})"


class Gauge:
    """A named value that can go up and down (e.g. bytes in use)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str = "", labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def increment(self, amount: float = 1.0) -> None:
        self.value += amount

    def decrement(self, amount: float = 1.0) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0.0

    @property
    def display_name(self) -> str:
        return format_instrument_name(self.name, self.labels)

    def __repr__(self) -> str:
        return f"Gauge({self.display_name!r}, {self.value})"


class Histogram:
    """A streaming histogram over numeric samples.

    Keeps every sample (experiments here are small enough) so exact
    percentiles are available; also maintains running sum/sum-of-squares
    for O(1) mean and variance.
    """

    def __init__(self, name: str = "", labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.samples: List[float] = []
        self._sum = 0.0
        self._sum_sq = 0.0

    def add(self, value: float) -> None:
        self.samples.append(value)
        self._sum += value
        self._sum_sq += value * value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def reset(self) -> None:
        self.samples.clear()
        self._sum = 0.0
        self._sum_sq = 0.0

    @property
    def display_name(self) -> str:
        return format_instrument_name(self.name, self.labels)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return self._sum / len(self.samples)

    @property
    def variance(self) -> float:
        n = len(self.samples)
        if n < 2:
            return 0.0
        mean = self._sum / n
        return max((self._sum_sq - n * mean * mean) / (n - 1), 0.0)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0

    def percentile(self, q: float) -> float:
        """Exact percentile with linear interpolation; q in [0, 100].

        Edge cases are pinned down: q is validated even when the
        histogram is empty (an out-of-range q is a caller bug regardless
        of sample count), an empty histogram reports 0.0, a single
        sample is every percentile of itself, and q=0 / q=100 return the
        exact minimum / maximum with no interpolation arithmetic.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        if q == 0.0:
            return ordered[0]
        if q == 100.0:
            return ordered[-1]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        weight = rank - low
        return ordered[low] + weight * (ordered[high] - ordered[low])

    def bucketize(self, bucket_width: float) -> Dict[float, int]:
        """Group samples into fixed-width buckets keyed by bucket start."""
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        buckets: Dict[float, int] = defaultdict(int)
        for sample in self.samples:
            buckets[math.floor(sample / bucket_width) * bucket_width] += 1
        return dict(buckets)

    def frequency(self) -> Dict[float, int]:
        """Exact value -> count map (useful for integer samples like hops)."""
        freq: Dict[float, int] = defaultdict(int)
        for sample in self.samples:
            freq[sample] += 1
        return dict(freq)

    def summary(self) -> Dict[str, float]:
        """A dict of the headline statistics, ready for table rendering."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.minimum,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.maximum,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.display_name!r}, n={self.count}, mean={self.mean:.3f})"


class MetricsRegistry:
    """A named, labelled collection of counters, gauges and histograms.

    One registry typically belongs to one simulation run; components look
    up their instruments by ``(name, labels)`` so benchmarks and the
    ``repro metrics`` CLI can read them afterwards.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}
        # Instrument name -> HELP text for the Prometheus exposition.
        self._help: Dict[str, str] = {}
        self._by_label: Dict[str, Dict[str, Counter]] = {}

    def describe(self, name: str, help_text: str) -> None:
        """Attach a HELP text to the instrument family *name* (the
        dotted metric name, before exposition sanitisation)."""
        self._help[name] = help_text

    # ------------------------------------------------------------------ #
    # instrument lookup (create-on-first-use)
    # ------------------------------------------------------------------ #

    def counter(self, name: str, **labels: str) -> Counter:
        # Label-free lookups skip the sort: they dominate hot paths
        # (per-hop message tallies), where the generator shows up.
        key = (name, _label_items(labels)) if labels else (name, ())
        counter = self._counters.get(key)
        if counter is None:
            counter = Counter(name, key[1])
            self._counters[key] = counter
        return counter

    def counters_by_label(self, name: str) -> Dict[str, Counter]:
        """A memo, for a hot path, of *name*'s counters by the value of
        their one label, which the caller fills from :meth:`counter`.
        The registry owns it, so :meth:`reset` empties it along with the
        counters it drops, and the caller's next miss re-registers."""
        return self._by_label.setdefault(name, {})

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_items(labels)) if labels else (name, ())
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = Gauge(name, key[1])
            self._gauges[key] = gauge
        return gauge

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = (name, _label_items(labels)) if labels else (name, ())
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = Histogram(name, key[1])
            self._histograms[key] = histogram
        return histogram

    # ------------------------------------------------------------------ #
    # read-out (sorted, hence deterministic)
    # ------------------------------------------------------------------ #

    def counters(self) -> List[Tuple[str, int]]:
        return [
            (c.display_name, c.value)
            for _, c in sorted(self._counters.items())
        ]

    def gauges(self) -> List[Tuple[str, float]]:
        return [
            (g.display_name, g.value)
            for _, g in sorted(self._gauges.items())
        ]

    def histograms(self) -> List[Tuple[str, Histogram]]:
        return [
            (h.display_name, h)
            for _, h in sorted(self._histograms.items())
        ]

    def snapshot(self) -> dict:
        """A plain-dict dump of every instrument, deterministically
        ordered -- the payload of ``repro metrics``."""
        return {
            "counters": dict(self.counters()),
            "gauges": dict(self.gauges()),
            "histograms": {
                name: histogram.summary() for name, histogram in self.histograms()
            },
        }

    def reset(self) -> None:
        self._counters.clear()
        for memo in self._by_label.values():
            memo.clear()
        self._gauges.clear()
        self._histograms.clear()

    # ------------------------------------------------------------------ #
    # structured export / federation (telemetry plane)
    # ------------------------------------------------------------------ #

    def export(self) -> list:
        """A structural dump as the typed rows a telemetry snapshot
        carries: counter, gauge and histogram rows of ``[name, label
        pairs, value]`` -- for a histogram its full sample list, so a
        federating reader recovers exact percentiles -- then ``[name,
        HELP]`` pairs.  Gauge levels and samples travel as floats.
        Unlike :meth:`snapshot`, nothing is folded into display names: a
        remote scraper rebuilds real instruments from this via
        :meth:`absorb`."""
        def labels(instrument) -> list:
            return [list(item) for item in instrument.labels]

        return [
            [[counter.name, labels(counter), counter.value]
             for _, counter in sorted(self._counters.items())],
            [[gauge.name, labels(gauge), float(gauge.value)]
             for _, gauge in sorted(self._gauges.items())],
            [[histogram.name, labels(histogram),
              [float(sample) for sample in histogram.samples]]
             for _, histogram in sorted(self._histograms.items())],
            [[name, help_text] for name, help_text in sorted(self._help.items())],
        ]

    def absorb(self, export: list,
               extra_labels: Optional[Dict[str, str]] = None) -> None:
        """Fold an :meth:`export` into this registry, optionally adding
        labels (the telemetry collector adds ``node="<id>"`` so N nodes'
        instruments coexist in one federated registry).  Counter values
        add, gauge values overwrite, histogram samples append; HELP
        texts install without displacing existing ones."""
        counters, gauges, histograms, help_texts = export

        def labels(items: list) -> Dict[str, str]:
            return {**dict(items), **(extra_labels or {})}

        for name, items, value in counters:
            self.counter(name, **labels(items)).increment(value)
        for name, items, value in gauges:
            self.gauge(name, **labels(items)).set(value)
        for name, items, samples in histograms:
            self.histogram(name, **labels(items)).extend(samples)
        for name, help_text in help_texts:
            if name not in self._help:
                self.describe(name, help_text)

    # ------------------------------------------------------------------ #
    # Prometheus text exposition (live nodes)
    # ------------------------------------------------------------------ #

    def to_prometheus(self) -> str:
        """The standard text exposition format, for scraping live nodes.

        Metric names are sanitised (dots become underscores); counters
        get the conventional ``_total`` suffix; histograms expose
        ``_count``, ``_sum`` and three quantile series.  Every family is
        announced with ``# HELP`` (from :meth:`describe`, falling back
        to the dotted instrument name) and ``# TYPE`` before its first
        sample -- the exposition-format contract a strict scraper
        enforces (`tests` validate it with a strict parser).
        """
        lines: List[str] = []

        def prom_name(name: str) -> str:
            return _PROM_BAD_CHARS.sub("_", name)

        def prom_labels(labels: LabelItems, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
            items = labels + extra
            if not items:
                return ""
            return "{" + ",".join(f'{k}="{v}"' for k, v in items) + "}"

        def fmt(value: float) -> str:
            if isinstance(value, float) and value.is_integer():
                return str(int(value))
            return repr(value)

        announced: set = set()

        def family(exposed: str, instrument: str, kind: str) -> None:
            """HELP + TYPE for *exposed*, once, before its first sample."""
            if exposed in announced:
                return
            announced.add(exposed)
            help_text = self._help.get(instrument, f"instrument {instrument}")
            # HELP text is a single escaped line per the format spec.
            help_text = help_text.replace("\\", "\\\\").replace("\n", "\\n")
            lines.append(f"# HELP {exposed} {help_text}")
            lines.append(f"# TYPE {exposed} {kind}")

        for _, counter in sorted(self._counters.items()):
            name = prom_name(counter.name) + "_total"
            family(name, counter.name, "counter")
            lines.append(f"{name}{prom_labels(counter.labels)} {counter.value}")
        for _, gauge in sorted(self._gauges.items()):
            name = prom_name(gauge.name)
            family(name, gauge.name, "gauge")
            lines.append(f"{name}{prom_labels(gauge.labels)} {fmt(gauge.value)}")
        for _, histogram in sorted(self._histograms.items()):
            name = prom_name(histogram.name)
            family(name, histogram.name, "summary")
            for q in (0.5, 0.95, 0.99):
                quantile = (("quantile", repr(q)),)
                lines.append(
                    f"{name}{prom_labels(histogram.labels, quantile)} "
                    f"{fmt(histogram.percentile(q * 100))}"
                )
            lines.append(f"{name}_sum{prom_labels(histogram.labels)} {fmt(histogram.sum)}")
            lines.append(f"{name}_count{prom_labels(histogram.labels)} {histogram.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )
