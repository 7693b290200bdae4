"""Runtime invariant sanitizer (TSan/ASan-style) for the plane.

``repro.check`` continuously validates protocol invariants while
workloads run: a :class:`Sanitizer` hooks the simulator (periodic sweeps
and quiescent points), the query context (post-settlement), the fault
injector (post-activation), and every node's reservation table, and
records violations as structured, replayable reports.

Enable with ``RBayConfig(sanitize=True)`` or ``--sanitize`` on the CLI;
``rbay check`` replays a fault schedule under the sanitizer and prints
the violation report.
"""

from repro.check.invariants import (
    check_aggregate_coherence,
    check_child_acc_residency,
    check_message_conservation,
    check_reservation_hygiene,
    check_tree_structure,
    default_invariants,
)
from repro.check.sanitizer import (
    DEFAULT_GRACE_MS,
    DEFAULT_SWEEP_EVENTS,
    Invariant,
    InvariantViolationError,
    Sanitizer,
    SanitizerContext,
    SanitizerReport,
    Violation,
)

__all__ = [
    "DEFAULT_GRACE_MS",
    "DEFAULT_SWEEP_EVENTS",
    "Invariant",
    "InvariantViolationError",
    "Sanitizer",
    "SanitizerContext",
    "SanitizerReport",
    "Violation",
    "check_aggregate_coherence",
    "check_child_acc_residency",
    "check_message_conservation",
    "check_reservation_hygiene",
    "check_tree_structure",
    "default_invariants",
]
