"""The built-in rule set: this repo's real failure modes, machine-checked.

Each rule documents, in ``rationale``, which paper claim (PAPER.md §2,
C1--C11) or subsystem invariant (DESIGN.md §6--§8) it protects.  The
rules are deliberately narrow and syntactic: a finding should almost
always be a real bug, and the rare legitimate exception is expected to
carry an inline ``# lint: disable=RULE -- why`` with its justification.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import FileContext, Finding, Rule, register

#: Layers whose behaviour must be a pure function of the seed: the
#: simulator core, the overlay, the network model, fault plans and
#: workload generators.  (``crypto/`` and ``analysis/`` are exempt --
#: key generation may want OS entropy, and bench reports legitimately
#: record wall-clock timestamps.)
DETERMINISTIC_SCOPES: Tuple[str, ...] = (
    "sim/",
    "pastry/",
    "netsim/",
    "faults/",
    "workloads/",
    "core/",
)

#: Modules that were deleted after a deprecation cycle, with the
#: replacement any stale import must switch to.  Entries stay listed
#: after removal so a resurrected import is flagged with its fix.
DEPRECATED_MODULES: Dict[str, str] = {
    "repro.sim.trace": "repro.obs.metrics",
    "repro.analysis.tracing": "repro.obs.trace_context",
    "repro.obs.spans": "repro.obs.trace_context",
}


# ---------------------------------------------------------------------- #
# shared AST helpers
# ---------------------------------------------------------------------- #

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportMap:
    """Resolve local names back to the modules they were imported from."""

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    head = alias.name.split(".")[0]
                    self.aliases[alias.asname or head] = (
                        alias.name if alias.asname else head
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve(self, dotted: Optional[str]) -> Optional[str]:
        """Map ``dt.now`` -> ``datetime.datetime.now`` given the imports."""
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        origin = self.aliases.get(head)
        if origin is None:
            return dotted
        return f"{origin}.{rest}" if rest else origin


def walk_calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def contains(body: List[ast.stmt], node_type: type) -> bool:
    return any(
        isinstance(node, node_type) for stmt in body for node in ast.walk(stmt)
    )


# ---------------------------------------------------------------------- #
# DET: determinism
# ---------------------------------------------------------------------- #

#: ``random.<fn>`` calls that draw from (or reseed) the process-global RNG.
_GLOBAL_RNG_FNS: Set[str] = {
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
}


@register
class UnseededRandom(Rule):
    id = "DET001"
    title = "unseeded or process-global RNG in a deterministic layer"
    rationale = (
        "Every C1-C11 reproduction (PAPER.md §2) and every chaos run "
        "(DESIGN.md §8) is byte-deterministic per seed.  RNGs in these "
        "layers must flow in as parameters from sim/rng.py's RngRegistry; "
        "an unseeded random.Random() or a module-level random.* call "
        "silently re-couples results to process state."
    )
    scopes = DETERMINISTIC_SCOPES
    # Unseeded RNG in a test or benchmark is a flaky-run hazard, not just
    # a sim-layer one; deliberate exceptions suppress with a reason.
    domains = ("src", "tests", "benchmarks")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = sorted(
                    alias.name for alias in node.names
                    if alias.name in _GLOBAL_RNG_FNS
                )
                if bad:
                    yield ctx.finding(
                        self, node,
                        f"importing {', '.join(bad)} from the random module binds "
                        "the process-global RNG -- take a random.Random stream "
                        "from sim/rng.py RngRegistry instead",
                    )
        for call in walk_calls(ctx.tree):
            resolved = imports.resolve(dotted_name(call.func))
            if resolved == "random.Random" and not call.args and not call.keywords:
                yield ctx.finding(
                    self, call,
                    "unseeded random.Random() -- seed it from sim/rng.py "
                    "(stable_seed / RngRegistry.stream) or accept an rng "
                    "parameter",
                )
            elif (
                resolved is not None
                and resolved.startswith("random.")
                and resolved.split(".", 1)[1] in _GLOBAL_RNG_FNS
            ):
                yield ctx.finding(
                    self, call,
                    f"{resolved}() draws from the process-global RNG -- use a "
                    "seeded random.Random stream from sim/rng.py RngRegistry",
                )


#: Functions that read the host's wall clock.
_WALL_CLOCK_FNS: Set[str] = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


@register
class WallClockRead(Rule):
    id = "DET002"
    title = "wall-clock read in a deterministic layer"
    rationale = (
        "Simulated time comes from the engine clock (sim/engine.py; the "
        "obs bus timestamps events with the same pluggable clock, "
        "DESIGN.md §7).  A wall-clock read in these layers makes event "
        "logs and chaos reports differ across identical seeded runs, "
        "breaking the byte-determinism the C6/C7 regression tests pin."
    )
    scopes = DETERMINISTIC_SCOPES
    # Tests asserting on wall-clock time are timing-flaky; benchmarks are
    # exempt -- measuring wall time is their whole point.
    domains = ("src", "tests")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for call in walk_calls(ctx.tree):
            resolved = imports.resolve(dotted_name(call.func))
            if resolved in _WALL_CLOCK_FNS:
                yield ctx.finding(
                    self, call,
                    f"{resolved}() reads the wall clock -- deterministic layers "
                    "must take time from the simulation engine clock",
                )


def _is_unordered(node: ast.AST) -> bool:
    """Syntactically a set (hash-ordered) expression?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in {"set", "frozenset"}:
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in {
            "union", "intersection", "difference", "symmetric_difference",
        }:
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_unordered(node.left) or _is_unordered(node.right)
    return False


@register
class UnsortedSetIteration(Rule):
    id = "DET003"
    title = "set materialised into ordered output without sorted()"
    rationale = (
        "Routing and repair decide real outcomes from candidate *lists* "
        "(next hop, replacement leaf, repair target); building those from "
        "set iteration order couples replica placement (paper §3.3) and "
        "repair (C6) to hash order, which PYTHONHASHSEED can silently "
        "reorder between runs.  Wrap the set in sorted(...) first."
    )
    scopes = ("pastry/", "core/maintenance.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in {"list", "tuple"}
                and node.args
                and _is_unordered(node.args[0])
            ):
                yield ctx.finding(
                    self, node,
                    f"{node.func.id}() over a set fixes an arbitrary hash order "
                    "-- use sorted(...) to make the ordering explicit",
                )
            elif isinstance(node, ast.ListComp) and any(
                _is_unordered(generator.iter) for generator in node.generators
            ):
                yield ctx.finding(
                    self, node,
                    "list comprehension iterating a set fixes an arbitrary hash "
                    "order -- iterate sorted(...) instead",
                )


# ---------------------------------------------------------------------- #
# ASYNC: live-layer event-loop discipline
# ---------------------------------------------------------------------- #

_BLOCKING_FNS: Set[str] = {
    "time.sleep",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "os.system", "os.popen",
    "socket.socket", "socket.create_connection",
    "urllib.request.urlopen",
}


class _AsyncCallCollector(ast.NodeVisitor):
    """Collect calls whose *innermost enclosing function* is async."""

    def __init__(self) -> None:
        self.stack: List[bool] = []
        self.calls: List[ast.Call] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.stack.append(False)
        self.generic_visit(node)
        self.stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.stack.append(True)
        self.generic_visit(node)
        self.stack.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.stack.append(False)
        self.generic_visit(node)
        self.stack.pop()

    def visit_Call(self, node: ast.Call) -> None:
        if self.stack and self.stack[-1]:
            self.calls.append(node)
        self.generic_visit(node)


@register
class BlockingCallInAsync(Rule):
    id = "ASYNC001"
    title = "blocking call inside an async function"
    rationale = (
        "The live cluster runs every node on one asyncio event loop "
        "(DESIGN.md §8): a single blocking call stalls all nodes' "
        "heartbeats and retry timers at once, turning one slow peer into "
        "a correlated whole-deployment pause -- exactly the failure mode "
        "the C7 retry/reroute path exists to mask."
    )
    scopes = ("live/",)
    # Async test/benchmark helpers share the one event loop with the
    # cluster under test -- a blocking call there stalls it identically.
    domains = ("src", "tests", "benchmarks")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        collector = _AsyncCallCollector()
        collector.visit(ctx.tree)
        for call in collector.calls:
            resolved = imports.resolve(dotted_name(call.func))
            if resolved in _BLOCKING_FNS:
                yield ctx.finding(
                    self, call,
                    f"{resolved}() blocks the event loop -- use the asyncio "
                    "equivalent (e.g. await asyncio.sleep) or move it off-loop",
                )
            elif resolved == "open":
                yield ctx.finding(
                    self, call,
                    "open() blocks the event loop -- do file I/O outside async "
                    "code paths",
                )


@register
class LostTask(Rule):
    id = "ASYNC002"
    title = "created task whose handle is discarded"
    rationale = (
        "A task whose handle is dropped is garbage-collectable mid-flight "
        "and its exceptions vanish: a failed retry path would neither "
        "raise DegradedError (C7) nor surface in the invariant sweep.  "
        "Keep the handle (assign/await/gather) so failures propagate."
    )
    scopes = ("live/",)
    domains = ("src", "tests")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            body_lists = [
                getattr(node, attr, [])
                for attr in ("body", "orelse", "finalbody")
            ]
            for body in body_lists:
                if not isinstance(body, list):
                    continue
                for stmt in body:
                    if not isinstance(stmt, ast.Expr):
                        continue
                    value = stmt.value
                    if not isinstance(value, ast.Call):
                        continue
                    name = dotted_name(value.func)
                    if name is None:
                        continue
                    tail = name.rsplit(".", 1)[-1]
                    if tail in {"create_task", "ensure_future"}:
                        yield ctx.finding(
                            self, stmt,
                            f"{name}(...) discards the task handle -- assign it "
                            "and await/cancel it so exceptions are not lost",
                        )


# ---------------------------------------------------------------------- #
# OBS: observability discipline
# ---------------------------------------------------------------------- #

@register
class EventSchemaDiscipline(Rule):
    id = "OBS001"
    title = "event class not a frozen dataclass, or unregistered"
    rationale = (
        "EventRecord determinism (byte-identical JSONL across identical "
        "seeded runs, DESIGN.md §7) assumes events are immutable, and the "
        "CI schema-validation smoke step only checks kinds registered in "
        "EVENT_TYPES -- an unregistered event would ship unvalidated."
    )
    scopes = ("obs/events.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        registered: Set[str] = set()
        for node in ctx.tree.body:
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign):
                target = node.target
            if (
                isinstance(target, ast.Name)
                and target.id == "EVENT_TYPES"
                and node.value is not None
            ):
                registered = {
                    name.id
                    for name in ast.walk(node.value)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
                }
        for node in ctx.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            is_event = any(
                (isinstance(base, ast.Name) and base.id == "Event")
                or (isinstance(base, ast.Attribute) and base.attr == "Event")
                for base in node.bases
            )
            if not is_event:
                continue
            if not self._frozen_dataclass(node):
                yield ctx.finding(
                    self, node,
                    f"event class {node.name} must be decorated "
                    "@dataclass(frozen=True) -- mutable events break "
                    "EventRecord determinism",
                )
            if node.name not in registered:
                yield ctx.finding(
                    self, node,
                    f"event class {node.name} is missing from EVENT_TYPES -- "
                    "unregistered events skip JSONL schema validation",
                )

    @staticmethod
    def _frozen_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            name = dotted_name(decorator.func)
            if name is None or name.rsplit(".", 1)[-1] != "dataclass":
                continue
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "frozen"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
        return False


# ---------------------------------------------------------------------- #
# ERR: error-handling discipline
# ---------------------------------------------------------------------- #

@register
class SwallowedException(Rule):
    id = "ERR001"
    title = "broad except that swallows the exception"
    rationale = (
        "The fault harness (DESIGN.md §8) relies on failures surfacing: "
        "either as a raised typed error (core/errors.py) or as a bus "
        "event the InvariantChecker and chaos reports can see.  A bare / "
        "except-Exception handler that does neither hides exactly the "
        "violations the chaos runs exist to catch."
    )

    domains = ("src", "tests", "benchmarks")

    _BROAD = {"Exception", "BaseException"}
    _EMITTERS = {"publish", "emit"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if contains(node.body, ast.Raise):
                continue
            if self._emits_event(node.body):
                continue
            label = "bare except" if node.type is None else "except Exception"
            yield ctx.finding(
                self, node,
                f"{label} swallows the exception -- re-raise a typed error or "
                "publish a bus event so the failure stays observable",
            )

    def _is_broad(self, type_node: Optional[ast.expr]) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Name):
            return type_node.id in self._BROAD
        if isinstance(type_node, ast.Attribute):
            return type_node.attr in self._BROAD
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(element) for element in type_node.elts)
        return False

    def _emits_event(self, body: List[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._EMITTERS
                ):
                    return True
        return False


# ---------------------------------------------------------------------- #
# NEW: deprecated-module hygiene
# ---------------------------------------------------------------------- #

@register
class DeprecatedImport(Rule):
    id = "NEW001"
    title = "import of a deprecated shim module"
    rationale = (
        "deleted modules (the sim/trace.py and analysis/tracing.py "
        "re-export shims, and obs/spans.py, whose span trees became "
        "trace_context's flat rows) fail any import at runtime.  This "
        "rule catches stale imports at lint time and names the "
        "replacement module."
    )
    domains = ("src", "tests", "benchmarks")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    replacement = self._deprecated(alias.name)
                    if replacement:
                        yield ctx.finding(
                            self, node,
                            f"{alias.name} is a deprecated shim -- import "
                            f"{replacement} instead",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                modules = {node.module}
                modules.update(f"{node.module}.{a.name}" for a in node.names)
                for module in sorted(modules):
                    replacement = self._deprecated(module)
                    if replacement:
                        yield ctx.finding(
                            self, node,
                            f"{module} is a deprecated shim -- import "
                            f"{replacement} instead",
                        )
                        break

    @staticmethod
    def _deprecated(module: str) -> Optional[str]:
        for deprecated, replacement in DEPRECATED_MODULES.items():
            if module == deprecated or module.startswith(deprecated + "."):
                return replacement
        return None
