"""Trace contexts and the distributed span collector.

One client operation on the live cluster -- an ``insert``, ``lookup``
or raw ``route`` -- is executed by many nodes: the origin, every
routing hop, the root, and the replica holders the root fans out to.
Each participant sees only its own slice of the work, so the layer
records *flat* span records (trace_id, span_id, parent_id) the way a
real distributed tracer does, and :class:`TraceCollector.assemble`
rebuilds the per-operation span tree afterwards from the parent links
alone.  The simulator records the same rows: a traced
``PastryNetwork.route`` (and a traced join, around its route) writes
one ``hop`` span per routing decision with the live hop attributes, so
simulated and live routes assemble into trees of one schema.

Context propagates inside live messages as a :class:`TraceContext`
value in the ``traceparent`` header; over a socket it travels as the
26 bytes of the W3C binary layout (version, trace id, span id, flags).
All identifiers are deterministic: trace ids come from an injected
seeded rng stream, and child span ids are derived with
:func:`derive_span_id` from the parent's ids plus a child index --
never from wall-clock time or process randomness -- so a seeded run
serialises its traces byte-identically (the property the live-trace
determinism tests pin).  A derived id is a sha256, and most spans are
never read (the collector keeps a bounded window), so a context holds
the *inputs* of its id and derives it only when something reads it:
export, assembly, a socket encode, a degraded op's attempt history.

Timestamps are *logical*: the collector's monotonic tick, or sim-time
when the caller supplies it (the churn simulation stamps its lookup
traces with engine time).  Durations therefore order operations by how
much traced work happened during them, which is what the ``repro
trace`` slow-op log ranks by.

Retention is bounded: the collector keeps whole traces in two
generations of :data:`TRACE_RETENTION` traces each and drops the older
generation in one step when the newer one fills, so a long-running
cluster holds a fixed window of recent traces, not its whole history.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

#: Traces per generation.  Once the first generation has filled, a
#: collector holds between this many and twice this many whole traces.
TRACE_RETENTION = 1024


def derive_span_id(*parts: object) -> str:
    """A 16-hex-digit span id derived deterministically from *parts*:
    ``f"{stable_seed(*parts):016x}"`` without the int round trip."""
    return sha256("\x1f".join(map(str, parts)).encode()).digest()[:8].hex()


def _derive(trace_id: str, parent_id: Optional[str], qualifiers: tuple) -> str:
    """A derived span id: a root's from its trace id and qualifiers, a
    child's from its parent's span id too."""
    parents = () if parent_id is None else (parent_id,)
    return derive_span_id(trace_id, *parents, *qualifiers)


def new_trace_id(rng: random.Random) -> str:
    """A 32-hex-digit trace id drawn from an injected seeded stream."""
    return f"{rng.getrandbits(128):032x}"


class TraceContext:
    """One position in a trace: which trace, which span, whose child.

    A value.  The constructor makes an *explicit* context (a decoded
    header, a loaded export); :meth:`root` and :meth:`child` keep the
    parent and the qualifiers, and :attr:`span_id` hashes them on first
    read.  ``_entry``/``_number``: where a collector last numbered it.
    """

    __slots__ = ("trace_id", "sampled", "_span_id", "_parent", "_qualifiers",
                 "_entry", "_number")

    def __init__(self, trace_id: str, span_id: Optional[str],
                 parent_id: Optional[str] = None, sampled: bool = True) -> None:
        self.trace_id = trace_id
        self.sampled = sampled
        self._span_id = span_id
        self._parent: Union[str, TraceContext, None] = parent_id
        self._qualifiers: tuple = ()
        self._entry: Optional[_Trace] = None
        self._number = 0

    @classmethod
    def root(cls, rng: random.Random, sampled: bool = True) -> "TraceContext":
        """Start a new trace; the root span id is derived from the
        trace id so the pair stays a pure function of the rng stream."""
        ctx = cls(new_trace_id(rng), None, None, sampled)
        ctx._qualifiers = ("root",)
        return ctx

    def child(self, *qualifiers: object) -> "TraceContext":
        """The context a sub-operation runs under.  *qualifiers*
        (attempt number, hop index, replica id, ...) make sibling span
        ids distinct and deterministic -- two runs of the same seeded
        scenario derive identical ids."""
        ctx = TraceContext(self.trace_id, None, None, self.sampled)
        ctx._parent = self
        ctx._qualifiers = qualifiers
        return ctx

    @property
    def parent_id(self) -> Optional[str]:
        parent = self._parent
        return parent.span_id if type(parent) is TraceContext else parent

    @property
    def span_id(self) -> str:
        if self._span_id is None:
            self._span_id = _derive(self.trace_id, self.parent_id, self._qualifiers)
        return self._span_id

    def _key(self) -> tuple:
        return (self.trace_id, self.span_id, self.parent_id, self.sampled)

    def __eq__(self, other: object) -> bool:
        return type(other) is TraceContext and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"TraceContext{self._key()!r}"


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, flat: ancestry is carried by ids alone."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    end: float
    attributes: tuple  # sorted (key, value) pairs; hashable and ordered

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attributes": dict(self.attributes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


class SpanTree:
    """One span of an assembled trace with its children, in start order:
    the read-only view :meth:`TraceCollector.assemble` builds from flat
    records.  The span's own id joins its attributes, which are kept
    key-sorted, so a tree serialises and renders deterministically."""

    __slots__ = ("name", "attributes", "start", "duration", "children")

    def __init__(self, record: SpanRecord, children: List["SpanTree"]) -> None:
        self.name = record.name
        attributes = dict(record.attributes, span_id=record.span_id)
        self.attributes = {key: attributes[key] for key in sorted(attributes)}
        self.start = record.start
        self.duration = record.duration
        self.children = children

    def walk(self):
        """Depth-first iteration over the tree, self first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "attributes": dict(self.attributes),
            "start": self.start,
            "duration": self.duration,
            "children": [child.to_dict() for child in self.children],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def render(self) -> str:
        """An indented ASCII tree, one ``name  key=value ...`` line per span."""
        lines: List[str] = []

        def emit(span: SpanTree, depth: int) -> None:
            attrs = "  ".join(f"{key}={value!r}" for key, value in span.attributes.items())
            lines.append(f"{'  ' * depth}{span.name}  {attrs}".rstrip())
            for child in span.children:
                emit(child, depth + 1)

        emit(self, 0)
        return "\n".join(lines)


class _Trace:
    """One retained trace: its span rows in collection order, the
    per-node child-span counters behind :meth:`TraceCollector.child_seq`,
    and how each span number's ids are derived.

    ``derivations[n]`` is one atomic tuple, ``(parent, span_id,
    *qualifiers)``: *parent* is the parent's number in this entry, its
    explicit id, or None for a root; *span_id* is None until derived.
    Reading a number derives it and rewrites its entry as the resolved
    ``(parent_id, span_id)``, so each id is hashed at most once per
    retention window.
    """

    __slots__ = ("rows", "child_seqs", "derivations")

    def __init__(self) -> None:
        self.rows: List[tuple] = []
        self.child_seqs: Dict[int, int] = {}
        self.derivations: List[tuple] = []

    def number(self, ctx: TraceContext) -> int:
        """*ctx*'s span number in this entry, entered on first use.  A
        parent not numbered here (recorded later, or numbered in an
        evicted entry) is entered first, up to a context whose id is
        known, so a late child still gets the id an eager derivation
        gives."""
        if ctx._entry is self:
            return ctx._number
        parent = ctx._parent
        if type(parent) is TraceContext:
            known = parent._entry is not self and parent._span_id is not None
            parent = parent._span_id if known else self.number(parent)
        ctx._entry = self
        ctx._number = len(self.derivations)
        self.derivations.append((parent, ctx._span_id, *ctx._qualifiers))
        return ctx._number

    def ids(self, trace_id: str, number: int) -> Tuple[str, Optional[str]]:
        """The (span_id, parent_id) of span *number*, derived once."""
        parent, span_id, *qualifiers = self.derivations[number]
        if type(parent) is int:
            parent = self.ids(trace_id, parent)[0]
        if span_id is None:
            span_id = _derive(trace_id, parent, qualifiers)
        self.derivations[number] = (parent, span_id)
        return span_id, parent

    def span_record(self, row: tuple) -> SpanRecord:
        """A retained row (see :class:`TraceCollector`) as a record."""
        trace_id = row[1]
        return SpanRecord(trace_id, *self.ids(trace_id, row[2]), *row[3:6],
                          tuple(sorted(zip(row[6::2], row[7::2]))))


class TraceCollector:
    """Collects flat span records and rebuilds per-trace span trees.

    The collector owns a logical clock: :meth:`tick` returns a strictly
    increasing float, so span start/end pairs order deterministically
    under seeded asyncio interleavings without ever reading the wall
    clock (lint rule DET002's concern).  Callers with real timestamps
    (sim-time) pass them explicitly instead.

    Retention: traces live in two generations, ``current`` and
    ``older``.  A span or counter for a trace either one holds lands
    there; a new trace id joins ``current``, and when ``current``
    already holds :data:`TRACE_RETENTION` traces the collector first
    drops ``older`` whole (counted in :attr:`evicted_traces` /
    :attr:`evicted_spans`) and demotes ``current`` to ``older``.  A
    trace is therefore never cut in half unless that many traces start
    while it is in flight.

    A retained span is one flat tuple, ``(seq, trace_id, number, name,
    start, end, key, value, key, value, ...)``, where *number* names
    the span within its trace entry (:class:`_Trace`), and becomes a
    :class:`SpanRecord` -- ids derived, attributes sorted -- only on
    read-out.  CPython's cyclic GC stops tracking a tuple once it sees
    only atomic values inside, so retained spans and their derivations
    cost its full passes nothing.  The attributes are spliced in rather
    than nested as pairs because a nested tuple is untracked only after
    its members are, one level per pass -- a row would be promoted to
    the oldest generation still tracked.
    """

    def __init__(self) -> None:
        self._current: Dict[str, _Trace] = {}
        self._older: Dict[str, _Trace] = {}
        self._seq = 0  # spans ever recorded; orders rows across traces
        self._clock = 0.0
        self.evicted_traces = 0
        self.evicted_spans = 0

    def tick(self) -> float:
        self._clock += 1.0
        return self._clock

    def _find(self, trace_id: str) -> Optional[_Trace]:
        return self._current.get(trace_id) or self._older.get(trace_id)

    def _trace(self, trace_id: str) -> _Trace:
        """The retained entry for *trace_id*, opened (rotating the
        generations first if ``current`` is full) when it is new."""
        trace = self._find(trace_id)
        if trace is None:
            if len(self._current) >= TRACE_RETENTION:
                self.evicted_traces += len(self._older)
                self.evicted_spans += sum(
                    len(old.rows) for old in self._older.values()
                )
                self._older, self._current = self._current, {}
            trace = self._current[trace_id] = _Trace()
        return trace

    def child_seq(self, trace_id: str, node_id: int) -> int:
        """The next child-span sequence number of *node_id* under
        *trace_id*: 0, 1, 2, ... per (node, trace).  The counters live
        in the trace's entry, so they are evicted with the trace."""
        counters = self._trace(trace_id).child_seqs
        seq = counters.get(node_id, 0)
        counters[node_id] = seq + 1
        return seq

    def record(
        self,
        ctx: TraceContext,
        name: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
        **attributes: object,
    ) -> None:
        """Record one finished span under *ctx*.  Omitted timestamps are
        stamped from the logical clock (start == end: a point event)."""
        if start is None:
            start = self.tick()
        if end is None:
            end = start
        self._add(ctx, name, start, end, attributes.items())

    def _add(self, ctx: TraceContext, name: str, start: float, end: float,
             attributes: Iterable[Tuple[str, object]]) -> None:
        """Retain one span; *attributes* are its (key, value) pairs."""
        trace = self._trace(ctx.trace_id)
        number = ctx._number if ctx._entry is trace else trace.number(ctx)
        self._seq = seq = self._seq + 1
        row = [seq, ctx.trace_id, number, name, start, end]
        for pair in attributes:
            row += pair
        trace.rows.append(tuple(row))

    # ------------------------------------------------------------------ #
    # read-out
    # ------------------------------------------------------------------ #

    def _rows(self) -> List[tuple]:
        """Every retained row, in collection order."""
        rows = [
            row
            for generation in (self._older, self._current)
            for trace in generation.values()
            for row in trace.rows
        ]
        rows.sort()  # seq leads each row and is unique
        return rows

    def records(self) -> List[SpanRecord]:
        """The retained spans in collection order."""
        find = self._find
        return [find(row[1]).span_record(row) for row in self._rows()]

    def trace_ids(self) -> List[str]:
        """Ids of the retained traces with spans, in first-seen order
        (deterministic per seed)."""
        return [
            trace_id
            for generation in (self._older, self._current)
            for trace_id, trace in generation.items()
            if trace.rows
        ]

    def trace_records(self, trace_id: str) -> List[SpanRecord]:
        trace = self._find(trace_id)
        if trace is None:
            return []
        return [trace.span_record(row) for row in trace.rows]

    def __len__(self) -> int:
        """Retained spans."""
        return self._seq - self.evicted_spans

    # ------------------------------------------------------------------ #
    # tree assembly
    # ------------------------------------------------------------------ #

    def assemble(self, trace_id: str) -> SpanTree:
        """Rebuild the span tree for *trace_id* from parent links.

        Well-formedness is enforced, not assumed: exactly one root,
        every parent_id resolving inside the trace, and no duplicate
        span ids -- a violated link means context propagation broke,
        which is precisely what the concurrent-insert tests check.
        """
        records = self.trace_records(trace_id)
        if not records:
            raise KeyError(f"unknown trace: {trace_id}")
        by_id: Dict[str, SpanRecord] = {}
        for record in records:
            if record.span_id in by_id:
                raise ValueError(
                    f"trace {trace_id}: duplicate span id {record.span_id}"
                )
            by_id[record.span_id] = record
        roots = [r for r in records if r.parent_id is None]
        if len(roots) != 1:
            raise ValueError(
                f"trace {trace_id}: expected exactly one root span, "
                f"found {len(roots)}"
            )
        children: Dict[str, List[SpanRecord]] = {}
        for record in records:
            if record.parent_id is None:
                continue
            if record.parent_id not in by_id:
                raise ValueError(
                    f"trace {trace_id}: span {record.span_id} has unknown "
                    f"parent {record.parent_id}"
                )
            children.setdefault(record.parent_id, []).append(record)

        def build(record: SpanRecord) -> SpanTree:
            return SpanTree(record, [
                build(child)
                for child in sorted(
                    children.get(record.span_id, []),
                    key=lambda r: (r.start, r.span_id),
                )
            ])

        return build(roots[0])

    def assemble_all(self) -> List[SpanTree]:
        return [self.assemble(trace_id) for trace_id in self.trace_ids()]

    # ------------------------------------------------------------------ #
    # slow-op log
    # ------------------------------------------------------------------ #

    def top_spans(self, n: int = 10) -> List[SpanRecord]:
        """The *n* longest spans (the slow-op log), ordered by duration
        descending with (trace_id, span_id) as a deterministic
        tie-break."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return sorted(
            self.records(),
            key=lambda r: (-r.duration, r.trace_id, r.span_id),
        )[:n]

    # ------------------------------------------------------------------ #
    # JSONL export
    # ------------------------------------------------------------------ #

    def to_jsonl(self) -> str:
        """The retained spans, one per line in collection order:
        byte-identical across identical seeded runs."""
        return "".join(record.to_json() + "\n" for record in self.records())

    def write_jsonl(self, path: Union[str, Path]) -> int:
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")
        return len(self)


def load_trace_jsonl(path: Union[str, Path]) -> TraceCollector:
    """Rebuild a collector from an exported trace JSONL artifact (the
    ``repro.cli trace --out`` / chaos ``--traces`` files)."""
    collector = TraceCollector()
    clock = 0.0
    for line_number, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {line_number}: invalid JSON ({exc.msg})") from exc
        try:
            end = float(obj["end"])
            collector._add(
                TraceContext(obj["trace_id"], obj["span_id"], obj["parent_id"]),
                obj["name"],
                float(obj["start"]),
                end,
                obj["attributes"].items(),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"line {line_number}: not a span record") from exc
        clock = max(clock, end)
    collector._clock = clock
    return collector
