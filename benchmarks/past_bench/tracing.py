"""Spans recorded from outside the program, and what is derived from them.

A traced run rebinds the public entry points of each layer to wrappers
defined here -- class attributes for methods, and for functions imported
by name (``encode_message`` inside ``repro.live.net.transport``) the
attribute of every ``repro`` module that holds them.  Nothing under
``src/`` is edited, and :meth:`Tracer.uninstall` puts every original
back.

Each wrapper appends one span ``[name, start, end, parent, request,
value]`` to an in-memory list (a span's id is its index); *value* is a
count taken at the same boundary (bytes encoded, frames fed, messages
of a join), and the ``send`` wrappers also count messages by kind.
Parent and request travel in a ``contextvar``:

* the client call (``LiveStorageCluster.insert`` / ``lookup``,
  ``PastClient.insert`` / ``lookup``, a bare ``PastryNetwork.route``) is
  the *root*; its span id is the request id of everything below it;
* calls made by the same task nest naturally;
* a live handler runs in the *node's* task, whose context knows nothing
  of the client: the ``send`` wrapper remembers which root each wire
  ``request_id`` belongs to, and the handler (and ``decode_message``)
  wrappers look the id up in the message they were handed and adopt the
  root as parent.

Self-time is a span's duration minus the part of it its child spans
cover (their union, clipped to the span: the handlers a root adopted
run in different tasks and may overlap).
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import sys
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# Span fields, by position.
NAME, START, END, PARENT, REQUEST, VALUE = range(6)

_NO_CONTEXT: Tuple[Optional[int], Optional[int]] = (None, None)


class Tracer:
    """Span store, wrapper factory and patch bookkeeping for one run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Messages sent, by kind ("msg.<kind>").
        self.counts: Dict[str, int] = {}
        self._context: contextvars.ContextVar = contextvars.ContextVar(
            "past_bench_span", default=_NO_CONTEXT
        )
        #: wire request_id -> root span id (live runs).
        self._roots: Dict[int, int] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #

    def wrap(self, name: str, function: Callable, *, root: bool = False,
             leaf: bool = False, role: Optional[str] = None,
             value: Optional[Callable] = None) -> Callable:
        """A wrapper recording one *name* span per call of *function*.

        *root*: with no enclosing span, the call opens a request.
        *leaf*: the callee calls nothing that is wrapped, so the context
        is left alone (one contextvar set/reset saved per call).
        *role*: ``"send"`` for a transport's ``send(self, destination,
        message)`` -- it registers the request the message carries and
        counts the message by kind; ``"handler"`` for a node's
        ``_on_<kind>(self, message)`` -- it adopts that request;
        ``"decoder"`` for ``decode_message(payload)``, which runs in a
        socket reader task and learns whose request it served only from
        its own result.
        *value*: ``value(result)`` stored with the span (bytes, frames).
        """
        if role == "decoder":
            return self._wrap_decoder(name, function)
        spans = self.spans
        counts = self.counts
        context = self._context
        roots = self._roots

        def open_span(args: tuple) -> list:
            parent, request = context.get()
            if role is not None:
                message = args[2 if role == "send" else 1]
                wire_id = message.payload.get("request_id")
                if role == "send":
                    kind = f"msg.{message.kind}"
                    counts[kind] = counts.get(kind, 0) + 1
                    if wire_id is not None and request is not None:
                        roots.setdefault(wire_id, request)
                elif wire_id is not None and request is None:
                    parent = request = roots.get(wire_id)
            if root and parent is None:
                request = len(spans)
            span = [name, 0.0, 0.0, parent, request, None]
            spans.append(span)
            return span

        if asyncio.iscoroutinefunction(function):
            @functools.wraps(function)
            async def wrapper(*args, **kwargs):
                span = open_span(args)
                token = context.set((len(spans) - 1, span[REQUEST]))
                span[START] = perf_counter()
                try:
                    return await function(*args, **kwargs)
                finally:
                    span[END] = perf_counter()
                    context.reset(token)
        elif leaf:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                parent, request = context.get()
                span = [name, 0.0, 0.0, parent, request, None]
                spans.append(span)
                span[START] = perf_counter()
                try:
                    result = function(*args, **kwargs)
                finally:
                    span[END] = perf_counter()
                if value is not None:
                    span[VALUE] = value(result)
                return result
        else:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                span = open_span(args)
                token = context.set((len(spans) - 1, span[REQUEST]))
                span[START] = perf_counter()
                try:
                    result = function(*args, **kwargs)
                finally:
                    span[END] = perf_counter()
                    context.reset(token)
                if value is not None:
                    span[VALUE] = value(result)
                return result
        return wrapper

    def _wrap_decoder(self, name: str, function: Callable) -> Callable:
        spans = self.spans
        roots = self._roots

        @functools.wraps(function)
        def wrapper(payload):
            span = [name, perf_counter(), 0.0, None, None, len(payload)]
            spans.append(span)
            try:
                message = function(payload)
            finally:
                span[END] = perf_counter()
            wire_id = message.payload.get("request_id")
            if wire_id is not None:
                span[PARENT] = span[REQUEST] = roots.get(wire_id)
            return message
        return wrapper

    # ------------------------------------------------------------------ #
    # installing and removing
    # ------------------------------------------------------------------ #

    def patch_method(self, owner: type, attribute: str, name: str,
                     **options) -> None:
        """Rebind ``owner.attribute`` (looked up in the class's own
        ``__dict__``: an inherited method is patched where it is defined)."""
        original = owner.__dict__[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, **options))

    def patch_function(self, function: Callable, name: str, **options) -> None:
        """Rebind *function* in every loaded ``repro`` module that holds it."""
        wrapper = self.wrap(name, function, **options)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, held in list(vars(module).items()):
                if held is function:
                    self._patches.append((module, attribute, function))
                    setattr(module, attribute, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #

    def write_jsonl(self, path) -> None:
        """One JSON object per span, in start order, times in seconds
        since the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request, value) in enumerate(self.spans):
                handle.write(
                    f'{{"id": {index}, "name": "{name}", '
                    f'"start": {start - origin:.9f}, "end": {end - origin:.9f}, '
                    f'"parent": {_json(parent)}, "request": {_json(request)}, '
                    f'"value": {_json(value)}}}\n'
                )


def _json(value) -> str:
    return "null" if value is None else repr(value)


# ---------------------------------------------------------------------- #
# what the layers' entry points are
# ---------------------------------------------------------------------- #


def _methods_named(owner: type, prefix: str) -> List[str]:
    return sorted(name for name, held in vars(owner).items()
                  if name.startswith(prefix) and callable(held))


def install_shared(tracer: Tracer) -> None:
    """Layers both the live cluster and the simulator run through."""
    from repro.core.storage import FileStore
    from repro.crypto import signatures
    from repro.obs.ledger import CostLedger
    from repro.obs.metrics import Counter
    from repro.obs.trace_context import TraceCollector
    from repro.pastry.routing import (
        DeterministicRouting,
        RandomizedRouting,
        ReplicaAwareRouting,
    )

    for policy in (DeterministicRouting, ReplicaAwareRouting, RandomizedRouting):
        for attribute in ("next_hop", "next_hop_explained"):
            tracer.patch_method(policy, attribute, "routing.next_hop", leaf=True)
    tracer.patch_method(FileStore, "store", "filestore.store")
    tracer.patch_method(FileStore, "get", "filestore.get", leaf=True)
    tracer.patch_function(signatures.sign_fields, "crypto.sign", leaf=True)
    tracer.patch_function(signatures.verify_fields, "crypto.verify", leaf=True)
    tracer.patch_method(CostLedger, "charge", "obs.charge", leaf=True)
    tracer.patch_method(Counter, "increment", "obs.increment", leaf=True)
    tracer.patch_method(TraceCollector, "record", "obs.record", leaf=True)


def install_live(tracer: Tracer) -> None:
    """Entry points of the live stack, client call down to the frame."""
    from repro.live.cluster import LiveCluster, LiveNode
    from repro.live.net import codec, framing
    from repro.live.net.transport import SocketTransport
    from repro.live.storage import LiveStorageCluster, LiveStorageNode
    from repro.live.transport import InProcessTransport

    install_shared(tracer)
    tracer.patch_method(LiveStorageCluster, "insert", "client.store", root=True)
    tracer.patch_method(LiveStorageCluster, "lookup", "client.retrieve", root=True)
    tracer.patch_method(LiveCluster, "route", "client.route", root=True)
    for owner, layer in ((LiveNode, "cluster"), (LiveStorageNode, "storage")):
        for attribute in _methods_named(owner, "_on_"):
            tracer.patch_method(owner, attribute, f"{layer}.{attribute[1:]}",
                                role="handler")
        # Routing and delivery proper: ``_on_route`` only unwraps.
        for attribute in ("_forward_route", "_deliver_route"):
            tracer.patch_method(owner, attribute, f"{layer}.{attribute[1:]}")
    tracer.patch_method(SocketTransport, "send", "socket_transport.send",
                        role="send")
    tracer.patch_method(InProcessTransport, "send", "inproc_transport.send",
                        role="send")
    tracer.patch_function(codec.encode_message, "codec.encode", leaf=True, value=len)
    tracer.patch_function(codec.decode_message, "codec.decode", role="decoder")
    tracer.patch_function(framing.encode_frame, "framing.encode", leaf=True)
    tracer.patch_method(framing.FrameDecoder, "feed", "framing.feed",
                        leaf=True, value=len)


def install_sim(tracer: Tracer) -> None:
    """Entry points of the simulator stack."""
    from repro.core.client import PastClient
    from repro.pastry import join
    from repro.pastry.network import PastryNetwork
    from repro.pastry.oracle import IncrementalOracle

    install_shared(tracer)
    tracer.patch_method(PastClient, "insert", "core.client.insert", root=True)
    tracer.patch_method(PastClient, "lookup", "core.client.lookup", root=True)
    tracer.patch_method(PastryNetwork, "route", "pastry.network.route", root=True)
    tracer.patch_method(PastryNetwork, "rebuild_state_oracle", "pastry.oracle.build")
    tracer.patch_function(join.join_network, "pastry.join.join", root=True, value=int)
    for attribute in ("on_join", "on_leave"):
        tracer.patch_method(IncrementalOracle, attribute, "pastry.oracle.event",
                            root=True)


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #


class SpanStats:
    """Calls, total time, self-time and summed value per span name, plus
    the per-request account (roots' durations and uncovered time), over
    the spans with ids in ``[first, last)``."""

    def __init__(self, spans: List[list], first: int = 0,
                 last: Optional[int] = None) -> None:
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.value: Dict[str, float] = {}
        self.requests = 0
        self.request_time = 0.0
        self.request_uncovered = 0.0
        covered = _child_cover(spans)
        for index in range(first, len(spans) if last is None else last):
            span = spans[index]
            name = span[NAME]
            duration = span[END] - span[START]
            own = duration - covered.get(index, 0.0)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = self.self_time.get(name, 0.0) + own
            if span[VALUE] is not None:
                self.value[name] = self.value.get(name, 0.0) + span[VALUE]
            if span[REQUEST] == index:
                self.requests += 1
                self.request_time += duration
                self.request_uncovered += own

    def mean_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1e6 * self.total[name] / calls if calls else 0.0

    def self_us(self, names: Iterable[str]) -> float:
        return 1e6 * sum(self.self_time.get(name, 0.0) for name in names)

    def names(self, prefix: str) -> List[str]:
        return [name for name in self.calls if name.startswith(prefix)]


def _child_cover(spans: List[list]) -> Dict[int, float]:
    """Seconds of each parent covered by the union of its children.

    Spans are appended at entry by one thread, so a parent's children
    come in start order and one pass merges overlapping ones.
    """
    covered: Dict[int, float] = {}
    frontier: Dict[int, float] = {}  # parent -> end of the merged cover so far
    for span in spans:
        parent = span[PARENT]
        if parent is None:
            continue
        low, high = spans[parent][START], spans[parent][END]
        start = max(span[START], low, frontier.get(parent, low))
        end = min(span[END], high)
        if end > start:
            covered[parent] = covered.get(parent, 0.0) + end - start
            frontier[parent] = end
    return covered


def check_well_formed(spans: List[list]) -> List[str]:
    """Structural faults of a span list (empty when there are none):
    every request has exactly one root, children start inside their
    parent, no span runs backwards or has negative self-time."""
    faults = []
    covered = _child_cover(spans)
    for index, span in enumerate(spans):
        name, start, end, parent, request = span[:5]
        if end < start:
            faults.append(f"span {index} ({name}) ends before it starts")
        if end - start - covered.get(index, 0.0) < -1e-9:
            faults.append(f"span {index} ({name}) has negative self-time")
        if parent is None:
            if request is not None and request != index:
                faults.append(f"span {index} ({name}) has a request but no parent")
            continue
        if parent >= index:
            faults.append(f"span {index} ({name}) precedes its parent")
            continue
        if spans[parent][REQUEST] != request:
            faults.append(f"span {index} ({name}) left its parent's request")
        if not spans[parent][START] <= start <= spans[parent][END]:
            faults.append(f"span {index} ({name}) starts outside its parent")
    return faults
