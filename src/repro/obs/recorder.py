"""The observer: one object bundling metrics, events and spans.

Core code holds a single ``obs`` reference and guards every
instrumentation site with ``if obs.enabled:`` (equivalently ``if obs:``
-- the null observer is falsy).  The default everywhere is
:data:`NULL_OBSERVER`, so a network built without an observer performs
*zero* observability work: no event objects, no label dicts, no span
allocations -- just one attribute test per site.  The perf suite's route
workloads enforce this (<= 2% budget).

Installing a real :class:`Observer` turns everything on at once: the
network's message counters land in ``observer.metrics`` (the network
adopts it as its stats registry), protocol events flow to
``observer.bus``, and traced operations record flat span rows in
``observer.traces`` (:mod:`repro.obs.trace_context`), bounded by its
retention window.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.events import Event, EventBus, EventRecord, UnpricedKindCharged
from repro.obs.ledger import CostLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace_context import TraceCollector


class Observer:
    """A live recorder: metrics registry + event bus + trace collector.

    *clock* supplies sim-time timestamps for events (a simulation driver
    typically sets ``observer.clock = engine_now``); without one, all
    timestamps are 0.0 and ordering is carried by sequence numbers, so
    output stays deterministic.
    """

    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        metrics: Optional[MetricsRegistry] = None,
        ledger: Optional[CostLedger] = None,
    ) -> None:
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.bus = EventBus(clock=self._now)
        # Tracing: flat span records keyed by trace id, assembled into
        # per-operation trees on demand (obs/trace_context).
        self.traces = TraceCollector()
        # Cost accounting: message/byte charges per activity category
        # (obs/ledger).  Instrumented layers cache a direct reference so
        # the ledger-off path stays one ``is not None`` test.
        self.ledger = ledger if ledger is not None else CostLedger()
        # Runtime twin of lint rule CONF001: an unpriced kind bumps a
        # visible counter on every charge and warns (as an event) once.
        self.ledger.on_unpriced = self._record_unpriced

    def _record_unpriced(
        self, kind: str, category: str, fallback_bytes: int, first: bool
    ) -> None:
        self.metrics.counter("ledger.unpriced", kind=kind).increment()
        if first:
            self.emit(
                UnpricedKindCharged(
                    message_kind=kind,
                    fallback_category=category,
                    fallback_bytes=fallback_bytes,
                )
            )

    def _now(self) -> float:
        clock = self.clock
        return float(clock()) if clock is not None else 0.0

    def emit(self, event: Event) -> EventRecord:
        return self.bus.publish(event)

    def snapshot(self) -> dict:
        return self.metrics.snapshot()

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Observer(events={len(self.bus)}, spans={len(self.traces)}, "
            f"metrics={self.metrics!r})"
        )


class NullObserver:
    """The default no-op recorder.

    Falsy and with ``enabled = False``, so instrumented hot paths skip
    all observability work with a single attribute check.  The no-op
    methods exist only as a safety net for unguarded calls.
    """

    enabled = False
    metrics = None
    clock = None
    traces = None
    ledger = None

    def emit(self, event: Event) -> None:
        pass

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullObserver()"


NULL_OBSERVER = NullObserver()
