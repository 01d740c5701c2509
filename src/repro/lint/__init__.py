"""``repro.lint``: an AST-based determinism / async-safety / obs-discipline gate.

The runtime :class:`~repro.faults.invariants.InvariantChecker` (PR 3)
verifies a *running* deployment; this package is its static-analysis
analogue, verifying the *source tree* against the same invariants before
the code ever runs.  ``python -m repro.lint src tests benchmarks`` walks
the trees with a small stdlib-``ast`` rule engine and exits nonzero on
any finding; the CI ``lint`` job gates every PR on exactly that.

Since PR 9 the engine runs two passes over one parse: the per-file
syntactic rules, then the **whole-program** rules, which consume a
shared :class:`~repro.lint.index.ProjectIndex` (module map, import
graph, per-class symbol tables, coroutine await positions).

Per-file rules (see DESIGN.md §9):

========  ==============================================================
DET001    unseeded / process-global RNG in a deterministic layer
DET002    wall-clock read in a deterministic layer
DET003    set materialised into ordered output without ``sorted()``
ASYNC001  blocking call inside an ``async def`` in the live layer
ASYNC002  ``create_task`` whose handle is discarded
OBS001    event class not a frozen dataclass / missing from EVENT_TYPES
ERR001    broad ``except`` that swallows the exception
NEW001    import of a deprecated shim module
========  ==============================================================

Whole-program rules (see DESIGN.md §14):

========  ==============================================================
ASYNC101  check-then-act on a shared attribute across an await point
ASYNC102  task handle with no cancellation path from aclose/stop
ASYNC103  lock held across an await into a stored user callback
ASYNC104  Event/future waiter with no setter on the close path
CONF001   message kind constructed/charged but missing from MESSAGE_COSTS
CONF003   event emitted or defined outside the EVENT_TYPES schema
CONF004   claim id produced but not declared in obs/claims.py
CONF005   docs/PROTOCOLS.md cost table out of sync with MESSAGE_COSTS
========  ==============================================================

A legitimate exception carries ``# lint: disable=RULE -- why`` on the
flagged line; the justification text is mandatory (an unjustified
``disable`` is itself reported as LINT000 and suppresses nothing).
Output formats: human (default), ``--format json`` (or ``--json``), and
``--format sarif`` for code-scanning upload.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.engine import (
    LINT000,
    PARSE001,
    RULES,
    FileContext,
    Finding,
    ProjectRule,
    Report,
    Rule,
    Suppression,
    all_rules,
    lint_file,
    lint_paths,
    parse_suppressions,
    register,
)

__all__ = [
    "LINT000",
    "PARSE001",
    "RULES",
    "FileContext",
    "Finding",
    "ProjectRule",
    "Report",
    "Rule",
    "Suppression",
    "all_rules",
    "lint_file",
    "lint_paths",
    "parse_suppressions",
    "register",
    "main",
]


def _default_paths() -> List[str]:
    paths = [p for p in ("src", "tests", "benchmarks") if Path(p).is_dir()]
    return paths or ["."]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=(
            "AST-based determinism / async-safety / observability gate "
            "(exit 0 = clean, 1 = findings, 2 = bad invocation)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*",
        help=(
            "files or directories to lint "
            "(default: src, tests, benchmarks -- whichever exist)"
        ),
    )
    parser.add_argument(
        "--format", choices=("human", "json", "sarif"), default=None,
        help="output format (default: human)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="shorthand for --format json (kept for CI compatibility)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table (id, scopes, title, rationale) and exit",
    )
    return parser


def _print_rules() -> None:
    for rule in all_rules():
        scopes = ", ".join(rule.scopes) if rule.scopes else "(everywhere)"
        kind = "project" if isinstance(rule, ProjectRule) else "file"
        print(f"{rule.id}  {rule.title}")
        print(f"    kind: {kind}  domains: {', '.join(rule.domains)}")
        print(f"    scopes: {scopes}")
        print(f"    why: {rule.rationale}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_rules()
        return 0
    output = args.format or ("json" if args.json else "human")
    paths = args.paths or _default_paths()
    try:
        report = lint_paths(paths)
    except FileNotFoundError as exc:
        print(f"repro.lint: no such path: {exc}", file=sys.stderr)
        return 2
    if output == "json":
        print(report.to_json())
    elif output == "sarif":
        print(report.to_sarif(all_rules()))
    else:
        print(report.format_human())
    return 0 if report.clean else 1
