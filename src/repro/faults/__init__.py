"""Deterministic fault injection, retry discipline, and invariants."""

from repro.faults.chaos import run_chaos
from repro.faults.invariants import InvariantChecker, Violation
from repro.faults.plan import (
    ADJACENT_FAILURE,
    CRASH,
    RESTART,
    FaultEvent,
    FaultPlan,
    MessageFault,
    build_schedule,
)
from repro.faults.policy import RetryPolicy

__all__ = [
    "ADJACENT_FAILURE",
    "CRASH",
    "RESTART",
    "FaultEvent",
    "FaultPlan",
    "InvariantChecker",
    "MessageFault",
    "RetryPolicy",
    "Violation",
    "build_schedule",
    "run_chaos",
]
