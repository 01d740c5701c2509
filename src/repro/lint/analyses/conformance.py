"""The protocol-conformance checker (CONF001, CONF003-CONF005).

Three hand-maintained registries price, validate and declare the
protocol surface -- ``MESSAGE_COSTS`` in ``obs/cost_model.py``,
``EVENT_TYPES`` in ``obs/events.py``, ``_PROBES`` in ``obs/claims.py``
-- plus the human kind->category table in ``docs/PROTOCOLS.md``.  Each
can silently drift from the code that uses it: an unpriced kind falls
back to ``control@64B`` without a signal, a schemaless event ships
unvalidated, an unknown claim id raises at report time, an undocumented
kind misleads readers.  (The codec's tag set is not among them: its
encode and decode dispatch are built from one table in
``live/net/codec.py``, so the one-sided tag CONF002 looked for cannot
be written.)

These rules extract every *use* from the AST (kinds constructed or
charged, events emitted, claim ids produced) and cross-check them
against the registries.  Each rule silently skips
when its anchor registry module is not in the scanned tree, so fixture
trees for unrelated rules stay clean.

The runtime twin of CONF001 is ``CostLedger.charge``'s ``unpriced``
counter + one-shot warning event -- the static rule catches the drift
at lint time, the ledger catches dynamically-computed kinds the AST
cannot see.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.analyses.async_races import finding_at
from repro.lint.engine import Finding, ProjectRule, register
from repro.lint.index import ModuleInfo, ProjectIndex
from repro.lint.rules import dotted_name

COST_MODEL_REL = "obs/cost_model.py"
EVENTS_REL = "obs/events.py"
CLAIMS_REL = "obs/claims.py"
PROTOCOLS_DOC = "docs/PROTOCOLS.md"

#: ``| `kind` | category | ...`` rows of the PROTOCOLS.md cost tables.
_DOC_ROW_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|\s*([A-Za-z-]+)\s*\|")


def _top_level_assign(tree: ast.Module, name: str) -> Optional[ast.expr]:
    """The value expression of a module-level ``name = ...`` assignment."""
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                return node.value
    return None


def _string_constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` bindings (category constants)."""
    constants: Dict[str, str] = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            constants[node.targets[0].id] = node.value.value
    return constants


def message_costs(module: ModuleInfo) -> Dict[str, Tuple[Optional[str], int]]:
    """``MESSAGE_COSTS`` parsed from the AST: kind -> (category, line)."""
    value = _top_level_assign(module.tree, "MESSAGE_COSTS")
    if not isinstance(value, ast.Dict):
        return {}
    constants = _string_constants(module.tree)
    costs: Dict[str, Tuple[Optional[str], int]] = {}
    for key, entry in zip(value.keys, value.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            continue
        category: Optional[str] = None
        if isinstance(entry, ast.Tuple) and entry.elts:
            first = entry.elts[0]
            if isinstance(first, ast.Name):
                category = constants.get(first.id)
            elif isinstance(first, ast.Constant) and isinstance(first.value, str):
                category = first.value
        costs[key.value] = (category, key.lineno)
    return costs


@register
class UnpricedMessageKind(ProjectRule):
    id = "CONF001"
    title = "message kind constructed/charged but missing from MESSAGE_COSTS"
    rationale = (
        "Every kind either layer emits must map to one ledger category at "
        "a documented byte estimate (PROTOCOLS.md cost tables); an "
        "unlisted kind silently falls back to control@64B and corrupts "
        "the C11 maintenance-bandwidth curves the observatory gates on.  "
        "The CostLedger's `unpriced` counter is this rule's runtime twin."
    )
    scopes = ("live/", "pastry/", "core/", "obs/cost_model.py")

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        anchor = index.module(COST_MODEL_REL)
        if anchor is None:
            return
        priced = message_costs(anchor)
        if not priced:
            return
        for module in index.iter_modules(domain="src"):
            if module.rel == COST_MODEL_REL:
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                kind = self._literal_kind(node)
                if kind is None or kind in priced:
                    continue
                yield finding_at(
                    self, module.path, node,
                    f"message kind {kind!r} is not priced in MESSAGE_COSTS "
                    "(obs/cost_model.py) -- it would silently charge as "
                    "control@64B; add it to the table and to "
                    "docs/PROTOCOLS.md",
                )

    @staticmethod
    def _literal_kind(call: ast.Call) -> Optional[str]:
        """The constant message kind this call emits, if statically known."""
        name = dotted_name(call.func)
        tail = (name or "").rsplit(".", 1)[-1]
        if tail == "Message":
            for keyword in call.keywords:
                if (
                    keyword.arg == "kind"
                    and isinstance(keyword.value, ast.Constant)
                    and isinstance(keyword.value.value, str)
                ):
                    return keyword.value.value
            return None
        if tail == "count_message":
            for keyword in call.keywords:
                if (
                    keyword.arg == "kind"
                    and isinstance(keyword.value, ast.Constant)
                    and isinstance(keyword.value.value, str)
                ):
                    return keyword.value.value
            if call.args and isinstance(call.args[0], ast.Constant) and isinstance(
                call.args[0].value, str
            ):
                return call.args[0].value
        return None


def _registered_event_names(events_module: ModuleInfo) -> Set[str]:
    """Class names listed in the EVENT_TYPES registration."""
    value = _top_level_assign(events_module.tree, "EVENT_TYPES")
    if value is None:
        return set()
    return {
        node.id
        for node in ast.walk(value)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _event_subclass_names(events_module: ModuleInfo) -> Set[str]:
    names = set()
    for node in events_module.tree.body:
        if isinstance(node, ast.ClassDef) and any(
            (isinstance(base, ast.Name) and base.id == "Event")
            or (isinstance(base, ast.Attribute) and base.attr == "Event")
            for base in node.bases
        ):
            names.add(node.name)
    return names


@register
class SchemalessEvent(ProjectRule):
    id = "CONF003"
    title = "event emitted or defined outside the EVENT_TYPES schema"
    rationale = (
        "validate_jsonl only checks kinds registered in EVENT_TYPES "
        "(obs/events.py), and _FIELD_TYPES is derived from the same "
        "registration -- an Event subclass defined elsewhere, or emitted "
        "while unregistered, ships records the CI schema smoke never "
        "validates.  OBS001 polices events.py itself; this rule closes "
        "the whole-program gap."
    )
    scopes = ("obs/", "live/", "pastry/", "core/", "faults/")

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        events_module = index.module(EVENTS_REL)
        registered: Set[str] = set()
        event_classes: Set[str] = set()
        if events_module is not None:
            registered = _registered_event_names(events_module)
            event_classes = _event_subclass_names(events_module)
        for module in index.iter_modules(domain="src"):
            if module.rel == EVENTS_REL:
                continue
            local_events: Set[str] = set()
            for node in module.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                for base in node.bases:
                    resolved = module.imports.resolve(dotted_name(base))
                    if resolved is not None and (
                        resolved == "repro.obs.events.Event"
                        or resolved.endswith("obs.events.Event")
                    ):
                        local_events.add(node.name)
                        yield finding_at(
                            self, module.path, node,
                            f"event class {node.name} is defined outside "
                            "obs/events.py -- it cannot be registered in "
                            "EVENT_TYPES, so its records skip schema "
                            "validation; move it into obs/events.py",
                        )
                        break
            if events_module is None:
                continue
            for node in ast.walk(module.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in {"emit", "publish"}
                    and node.args
                    and isinstance(node.args[0], ast.Call)
                ):
                    continue
                ctor = (dotted_name(node.args[0].func) or "").rsplit(".", 1)[-1]
                if ctor in event_classes and ctor not in registered:
                    yield finding_at(
                        self, module.path, node,
                        f"event {ctor} is emitted but not registered in "
                        "EVENT_TYPES -- its records skip JSONL schema "
                        "validation",
                    )


@register
class UndeclaredClaimId(ProjectRule):
    id = "CONF004"
    title = "claim id produced but not declared in obs/claims.py"
    rationale = (
        "evaluate_claims raises KeyError on an unknown claim id -- at "
        "*report* time, hours after the chaos or scale run that produced "
        "the artifact.  Every literal claim id a report or driver emits "
        "must exist in _PROBES, so the failure moves from the observatory "
        "to the lint gate."
    )
    scopes = ("obs/", "faults/", "cli.py")

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        claims_module = index.module(CLAIMS_REL)
        if claims_module is None:
            return
        probes = _top_level_assign(claims_module.tree, "_PROBES")
        if not isinstance(probes, ast.Dict):
            return
        declared = {
            key.value
            for key in probes.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
        if not declared:
            return
        for module in index.iter_modules(domain="src"):
            if module.rel == CLAIMS_REL:
                continue
            for claim, node in self._produced_claims(module.tree):
                if claim in declared:
                    continue
                yield finding_at(
                    self, module.path, node,
                    f"claim id {claim!r} is not declared in _PROBES "
                    "(obs/claims.py) -- evaluate_claims will raise at "
                    "report time",
                )

    @staticmethod
    def _produced_claims(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
        def literal_ids(value: ast.expr) -> Iterator[Tuple[str, ast.AST]]:
            if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
                for element in value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        yield element.value, element

        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if (
                        isinstance(key, ast.Constant)
                        and key.value == "claims"
                    ):
                        yield from literal_ids(value)
            elif isinstance(node, ast.Call):
                tail = (dotted_name(node.func) or "").rsplit(".", 1)[-1]
                if tail != "evaluate_claims":
                    continue
                for keyword in node.keywords:
                    if keyword.arg == "claims":
                        yield from literal_ids(keyword.value)
                if len(node.args) >= 3:
                    yield from literal_ids(node.args[2])


@register
class ProtocolsTableDrift(ProjectRule):
    id = "CONF005"
    title = "docs/PROTOCOLS.md cost table out of sync with MESSAGE_COSTS"
    rationale = (
        "The kind->category tables in docs/PROTOCOLS.md promise to mirror "
        "MESSAGE_COSTS; a row that drifts (missing, extra, or "
        "recategorised) turns the documented cost taxonomy into fiction "
        "exactly where operators audit bandwidth.  The note in "
        "PROTOCOLS.md saying the table is machine-checked refers to this "
        "rule."
    )
    scopes = ("obs/cost_model.py",)

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        anchor = index.module(COST_MODEL_REL)
        if anchor is None:
            return
        priced = message_costs(anchor)
        if not priced:
            return
        doc = index.doc_file(PROTOCOLS_DOC)
        if doc is None:
            return
        doc_path = self._reported_path(doc)
        documented: Dict[str, Tuple[str, int]] = {}
        for lineno, line in enumerate(
            doc.read_text(encoding="utf-8").splitlines(), start=1
        ):
            match = _DOC_ROW_RE.match(line.strip())
            if match is None:
                continue
            documented.setdefault(match.group(1), (match.group(2), lineno))
        for kind in sorted(set(priced) - set(documented)):
            yield Finding(
                rule=self.id,
                path=anchor.path,
                line=priced[kind][1],
                col=1,
                message=(
                    f"kind {kind!r} is priced in MESSAGE_COSTS but missing "
                    f"from the {PROTOCOLS_DOC} cost table -- document it"
                ),
            )
        for kind in sorted(set(documented) - set(priced)):
            yield Finding(
                rule=self.id,
                path=doc_path,
                line=documented[kind][1],
                col=1,
                message=(
                    f"kind {kind!r} is documented in the cost table but "
                    "missing from MESSAGE_COSTS -- price it or drop the row"
                ),
            )
        for kind in sorted(set(documented) & set(priced)):
            doc_category, doc_line = documented[kind]
            cost_category = priced[kind][0]
            if cost_category is not None and doc_category != cost_category:
                yield Finding(
                    rule=self.id,
                    path=doc_path,
                    line=doc_line,
                    col=1,
                    message=(
                        f"kind {kind!r} is documented as category "
                        f"{doc_category!r} but MESSAGE_COSTS prices it as "
                        f"{cost_category!r}"
                    ),
                )

    @staticmethod
    def _reported_path(doc: Path) -> str:
        try:
            return doc.relative_to(Path.cwd()).as_posix()
        except ValueError:
            return doc.as_posix()
