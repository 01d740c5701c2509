"""Unified observability: metrics registry, event bus, tracing.

Three dependency-free pillars, shared by the synchronous simulator, the
discrete-event churn driver, and the live asyncio cluster:

* :mod:`repro.obs.metrics` -- named counters, gauges and histograms with
  labels (``route.hops{category="lookup"}``), a deterministic snapshot,
  and a Prometheus-style text exposition for live nodes;
* :mod:`repro.obs.events` -- typed protocol events (``RouteCompleted``,
  ``NodeJoined``, ``InsertRejected``, ...) published to an in-process
  bus with sim-time timestamps and JSONL export;
* :mod:`repro.obs.trace_context` -- flat span records under trace
  contexts, kept by a bounded collector and assembled into per-operation
  :class:`SpanTree` views.  Live operations, the churn simulation and
  traced simulator routes and joins all record here; a route's ``hop``
  spans carry the routing rule that fired *at decision time*.

The :class:`Observer` bundles all three; the :data:`NULL_OBSERVER` is a
falsy no-op stand-in, so instrumented hot paths guard with a single
``if obs.enabled:`` (or ``if obs:``) check and stay allocation-free when
observability is off.
"""

from repro.obs.events import (
    CacheHit,
    EventBus,
    EventRecord,
    InsertCompleted,
    InsertRejected,
    NodeFailed,
    NodeJoined,
    NodeRecovered,
    OracleRebuilt,
    ReclaimCompleted,
    ReplicaDiverted,
    RouteCompleted,
    SloBreached,
    validate_jsonl,
    validate_record,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.recorder import NULL_OBSERVER, NullObserver, Observer
from repro.obs.slo import (
    CHAOS_SLO,
    DEFAULT_LOAD_SLO,
    SLOError,
    evaluate_chaos_slo,
    evaluate_load_slo,
    evaluate_slo,
    format_verdict,
    parse_slo,
)
from repro.obs.telemetry import TelemetryCollector, TelemetryError, render_console
from repro.obs.timeseries import (
    TimeSeriesRecorder,
    WindowedHistogram,
    WindowedSeries,
)
from repro.obs.trace_context import SpanTree, TraceCollector, TraceContext

__all__ = [
    "CHAOS_SLO",
    "CacheHit",
    "Counter",
    "DEFAULT_LOAD_SLO",
    "EventBus",
    "EventRecord",
    "Gauge",
    "Histogram",
    "InsertCompleted",
    "InsertRejected",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "NodeFailed",
    "NodeJoined",
    "NodeRecovered",
    "NullObserver",
    "Observer",
    "OracleRebuilt",
    "ReclaimCompleted",
    "ReplicaDiverted",
    "RouteCompleted",
    "SLOError",
    "SloBreached",
    "SpanTree",
    "TelemetryCollector",
    "TelemetryError",
    "TimeSeriesRecorder",
    "TraceCollector",
    "TraceContext",
    "WindowedHistogram",
    "WindowedSeries",
    "evaluate_chaos_slo",
    "evaluate_load_slo",
    "evaluate_slo",
    "format_verdict",
    "parse_slo",
    "render_console",
    "validate_jsonl",
    "validate_record",
]
