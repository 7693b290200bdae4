"""The runtime invariant sanitizer: TSan/ASan-style wiring for the plane.

A :class:`Sanitizer` attaches to a built :class:`~repro.core.plane.RBay`
and continuously checks the invariants registered in an
:class:`InvariantRegistry` while workloads run:

* **periodic sweeps** — a chained simulator step hook fires a full
  registry sweep every ``sweep_events`` executed events;
* **quiescent points** — a simulator idle hook runs the strict checks
  (including quiescent-only ones, e.g. aggregate coherence) whenever the
  event queue fully drains; suites can also call
  :meth:`Sanitizer.check_quiescent` explicitly;
* **post-query** — a result listener on the shared
  :class:`~repro.query.executor._QueryContext` records settlement ground
  truth and spot-checks the cheap invariants;
* **post-fault-activation** — a :class:`~repro.faults.FaultInjector`
  listener marks churn disturbances (pausing grace-window invariants) and
  spot-checks conservation;
* **reservation lifecycle** — every node's
  :class:`~repro.core.reservation.ReservationTable` watcher feeds the
  demotion detector.

Checks are strictly observational: they never schedule events, never
touch an RNG, and never mutate protocol state, so a sanitized run
produces the same trace as an unsanitized one — and with ``sanitize``
off nothing is installed at all (zero-cost-off).

Violations are recorded as structured :class:`Violation` reports carrying
the simulation time, the plane's seed, and the active observability span
context, so a violation is immediately locatable in a Chrome trace
export.  ``fail_fast`` turns the first violation into a raised
:class:`InvariantViolationError`; otherwise violations collect into the
:class:`SanitizerReport` available as :attr:`Sanitizer.report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

#: An invariant check: called with a :class:`SanitizerContext`, yields
#: ``(subject, detail)`` pairs for every violation it currently observes.
CheckFn = Callable[["SanitizerContext"], Iterable[Tuple[str, str]]]

#: Default sweep cadence (simulator events between periodic sweeps).
DEFAULT_SWEEP_EVENTS = 5_000

#: Default convergence grace window (ms) for churn-sensitive invariants.
DEFAULT_GRACE_MS = 2_500.0


@dataclass(frozen=True)
class Violation:
    """One observed invariant violation, with enough context to replay it."""

    #: Name of the violated invariant (registry key).
    invariant: str
    #: What violated it — a topic, a node address, or ``network``.
    subject: str
    #: Human-readable description of the observed inconsistency.
    detail: str
    #: Simulation time (ms) at which the violation was recorded.
    time_ms: float
    #: The plane's master seed — replays the run deterministically.
    seed: int
    #: True when recorded by a quiescent-point check (strict mode).
    quiescent: bool = False
    #: Active obs-span propagation context ``(trace_id, span_id)`` at
    #: record time, when tracing is on — locates the violation in a
    #: Chrome trace export.  None when tracing is off or no span active.
    trace_ctx: Optional[Tuple[int, int]] = None

    def describe(self) -> str:
        """Stable one-line rendering used by reports and the CLI."""
        where = "quiescent" if self.quiescent else "sweep"
        ctx = f" trace={self.trace_ctx[0]}" if self.trace_ctx else ""
        return (f"[{self.time_ms:10.1f}ms seed={self.seed} {where}{ctx}] "
                f"{self.invariant}: {self.subject}: {self.detail}")


class InvariantViolationError(AssertionError):
    """Raised in fail-fast mode at the first recorded violation."""

    def __init__(self, violations: List[Violation]):
        self.violations = list(violations)
        super().__init__("\n".join(v.describe() for v in self.violations))


@dataclass(frozen=True)
class Invariant:
    """One pluggable runtime check.

    ``grace`` marks churn-sensitive structural invariants: during sweeps a
    candidate violation is only reported once it has persisted for the
    sanitizer's grace window with no fault activity — quiescent checks
    enforce it strictly.  ``quiescent_only`` checks (e.g. aggregate
    coherence) are skipped during sweeps entirely.
    """

    name: str
    check: CheckFn
    description: str = ""
    quiescent_only: bool = False
    grace: bool = False


class InvariantRegistry:
    """A named, pluggable collection of :class:`Invariant` checks."""

    def __init__(self, invariants: Iterable[Invariant] = ()):
        self._invariants: Dict[str, Invariant] = {}
        for invariant in invariants:
            self.register(invariant)

    @classmethod
    def default(cls) -> "InvariantRegistry":
        """A registry holding the five built-in plane invariants."""
        from repro.check.invariants import default_invariants

        return cls(default_invariants())

    def register(self, invariant: Invariant) -> None:
        """Add (or replace) a check under ``invariant.name``."""
        self._invariants[invariant.name] = invariant

    def unregister(self, name: str) -> None:
        """Remove a check; unknown names are a no-op."""
        self._invariants.pop(name, None)

    def names(self) -> List[str]:
        """Registered invariant names, in registration order."""
        return list(self._invariants)

    def __iter__(self) -> Iterator[Invariant]:
        return iter(self._invariants.values())

    def __len__(self) -> int:
        return len(self._invariants)

    def __contains__(self, name: str) -> bool:
        return name in self._invariants


@dataclass
class SanitizerContext:
    """Read-only view handed to every invariant check."""

    #: The plane under check.
    plane: Any
    #: The owning sanitizer (settlement ground truth lives here).
    sanitizer: "Sanitizer"
    #: True when running at a quiescent point (strict mode).
    quiescent: bool = False

    @property
    def now(self) -> float:
        """Current simulation time (ms)."""
        return self.plane.sim.now


@dataclass(frozen=True)
class SanitizerReport:
    """Structured outcome of a sanitized run."""

    #: Every recorded violation, in record order.
    violations: Tuple[Violation, ...]
    #: Periodic sweeps executed.
    sweeps: int
    #: Quiescent-point checks executed.
    quiescent_checks: int
    #: Invariant names that were active.
    invariants: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations

    def counts(self) -> Dict[str, int]:
        """Violations per invariant name."""
        out: Dict[str, int] = {}
        for violation in self.violations:
            out[violation.invariant] = out.get(violation.invariant, 0) + 1
        return out

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable rendering (benchmarks, the CLI ``--json-out``)."""
        return {
            "ok": self.ok,
            "sweeps": self.sweeps,
            "quiescent_checks": self.quiescent_checks,
            "invariants": list(self.invariants),
            "violation_counts": self.counts(),
            "violations": [
                {
                    "invariant": v.invariant,
                    "subject": v.subject,
                    "detail": v.detail,
                    "time_ms": v.time_ms,
                    "seed": v.seed,
                    "quiescent": v.quiescent,
                    "trace_ctx": list(v.trace_ctx) if v.trace_ctx else None,
                }
                for v in self.violations
            ],
        }

    def format(self) -> str:
        """Human-readable report for the CLI ``check`` subcommand."""
        lines = [f"sanitizer: {len(self.violations)} violation(s), "
                 f"{self.sweeps} sweeps, {self.quiescent_checks} quiescent "
                 f"checks, invariants: {', '.join(self.invariants)}"]
        for violation in self.violations:
            lines.append("  " + violation.describe())
        if self.ok:
            lines.append("  all invariants held")
        return "\n".join(lines)


class Sanitizer:
    """Runtime invariant harness for one built plane.

    Construct with a built :class:`~repro.core.plane.RBay` and call
    :meth:`attach`; the plane does both automatically when
    ``RBayConfig(sanitize=True)``.
    """

    def __init__(self, plane: Any,
                 registry: Optional[InvariantRegistry] = None,
                 sweep_events: int = DEFAULT_SWEEP_EVENTS,
                 fail_fast: bool = False,
                 grace_ms: float = DEFAULT_GRACE_MS):
        self.plane = plane
        self.registry = registry if registry is not None else InvariantRegistry.default()
        self.sweep_events = int(sweep_events)
        self.fail_fast = fail_fast
        self.grace_ms = grace_ms
        #: Every violation recorded so far (see :attr:`report`).
        self.violations: List[Violation] = []
        self.sweeps = 0
        self.quiescent_checks = 0
        # Settlement ground truth, fed by the result listener.
        self.finished_queries: Set[int] = set()
        self.satisfied_committed: Set[int] = set()
        # Reservation-lifecycle mirror: table id -> committed query id.
        self._committed_mirror: Dict[int, int] = {}
        self._addr_of: Dict[int, int] = {}
        # Grace bookkeeping for churn-sensitive invariants.
        self._candidates: Dict[Tuple[str, str, str], float] = {}
        self._last_disturbance = float("-inf")
        self._reported: Set[Tuple[str, str, str]] = set()
        self._countdown = self.sweep_events
        self._prev_step_hook = None
        self._prev_idle_hook = None
        self._attached = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self) -> "Sanitizer":
        """Hook the simulator, nodes, query context, and fault injector."""
        if self._attached:
            return self
        sim = self.plane.sim
        if self.sweep_events > 0:
            self._prev_step_hook = sim._step_hook
            sim.set_step_hook(self._on_step)
        self._prev_idle_hook = sim._idle_hook
        sim.set_idle_hook(self._on_idle)
        for node in self.plane.nodes:
            self.watch_node(node)
        self.plane.context.result_listeners.append(self._on_result)
        if self.plane.fault_injector is not None:
            self.watch_injector(self.plane.fault_injector)
        self._attached = True
        return self

    def detach(self) -> None:
        """Unhook everything (restores any chained step/idle hooks)."""
        if not self._attached:
            return
        sim = self.plane.sim
        if self.sweep_events > 0 and sim._step_hook == self._on_step:
            sim.set_step_hook(self._prev_step_hook)
        if sim._idle_hook == self._on_idle:
            sim.set_idle_hook(self._prev_idle_hook)
        for node in self.plane.nodes:
            if node.reservation.watcher == self._on_reservation_event:
                node.reservation.watcher = None
        listeners = self.plane.context.result_listeners
        if self._on_result in listeners:
            listeners.remove(self._on_result)
        injector = self.plane.fault_injector
        if injector is not None and self._on_fault in injector.listeners:
            injector.listeners.remove(self._on_fault)
        self._attached = False

    def watch_node(self, node: Any) -> None:
        """Subscribe to one node's reservation lifecycle (called for every
        node at attach time and by the plane for late-added nodes)."""
        node.reservation.watcher = self._on_reservation_event
        self._addr_of[id(node.reservation)] = node.address

    def watch_injector(self, injector: Any) -> None:
        """Subscribe to fault activations (called by ``install_faults``)."""
        if self._on_fault not in injector.listeners:
            injector.listeners.append(self._on_fault)

    # ------------------------------------------------------------------
    # Hook callbacks
    # ------------------------------------------------------------------
    def _on_step(self, time: float, seq: int) -> None:
        if self._prev_step_hook is not None:
            self._prev_step_hook(time, seq)
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self.sweep_events
            self.sweep()

    def _on_idle(self) -> None:
        if self._prev_idle_hook is not None:
            self._prev_idle_hook()
        self.check_quiescent()

    def _on_result(self, result: Any, committed_count: int) -> None:
        self.finished_queries.add(result.query_id)
        if committed_count > 0:
            self.satisfied_committed.add(result.query_id)
        self._spot_check()

    def _on_fault(self, event: Any) -> None:
        self._last_disturbance = self.plane.sim.now
        self._spot_check()

    def _on_reservation_event(self, table: Any, event: str, query_id: int) -> None:
        key = id(table)
        if event == "committed":
            self._committed_mirror[key] = query_id
            if query_id not in self.satisfied_committed:
                self._record(
                    "reservation_hygiene", f"node {self._addr_of.get(key)}",
                    f"lease committed for query {query_id} which never "
                    f"settled a satisfied result")
        elif event in ("released", "lease_expired", "hold_expired"):
            self._committed_mirror.pop(key, None)
        elif event == "reserved":
            demoted = self._committed_mirror.pop(key, None)
            if demoted is not None:
                self._record(
                    "reservation_hygiene", f"node {self._addr_of.get(key)}",
                    f"committed lease for query {demoted} demoted to a "
                    f"short-window reservation by a duplicate reserve from "
                    f"query {query_id}")

    # ------------------------------------------------------------------
    # Check execution
    # ------------------------------------------------------------------
    def sweep(self) -> None:
        """One periodic sweep over every non-quiescent-only invariant."""
        self.sweeps += 1
        counters = getattr(self.plane, "counters", None)
        if counters is not None:
            counters.increment("sanitizer.sweep")
        self._run_checks(quiescent=False)

    def check_quiescent(self) -> None:
        """Strict check at a quiescent point (idle queue / end of suite)."""
        self.quiescent_checks += 1
        counters = getattr(self.plane, "counters", None)
        if counters is not None:
            counters.increment("sanitizer.quiescent_check")
        self._run_checks(quiescent=True)

    def _spot_check(self) -> None:
        """Cheap O(1) spot check after a query settles / a fault fires."""
        ctx = SanitizerContext(self.plane, self, quiescent=False)
        for invariant in self.registry:
            if invariant.name != "message_conservation":
                continue
            for subject, detail in invariant.check(ctx):
                self._record(invariant.name, subject, detail)

    def _disturbed(self) -> bool:
        """True while churn is active or within the grace window of it."""
        injector = self.plane.fault_injector
        if injector is not None and (injector.crashed or injector.partitions
                                     or injector.rules):
            return True
        return self.plane.sim.now - self._last_disturbance < self.grace_ms

    def _structurally_disturbed(self) -> bool:
        """True while faults are *ongoing* (not merely recent): a crashed
        node or an open partition blocks convergence indefinitely, so
        convergence invariants cannot be expected to hold even at a
        quiescent point."""
        injector = self.plane.fault_injector
        return injector is not None and bool(
            injector.crashed or injector.partitions or injector.rules)

    def _run_checks(self, quiescent: bool) -> None:
        ctx = SanitizerContext(self.plane, self, quiescent=quiescent)
        now = self.plane.sim.now
        settled = not self._disturbed()
        structural = self._structurally_disturbed()
        found: Set[Tuple[str, str, str]] = set()
        for invariant in self.registry:
            if invariant.quiescent_only and not quiescent:
                continue
            if (invariant.grace or invariant.quiescent_only) and structural:
                # Convergence invariants are meaningless mid-fault.
                continue
            for subject, detail in invariant.check(ctx):
                if quiescent or not invariant.grace:
                    self._record(invariant.name, subject, detail,
                                 quiescent=quiescent)
                    continue
                key = (invariant.name, subject, detail)
                found.add(key)
                first_seen = self._candidates.setdefault(key, now)
                if settled and now - first_seen >= self.grace_ms:
                    self._record(invariant.name, subject, detail)
        if not quiescent:
            # A candidate that healed stops being tracked; persistence must
            # be continuous across sweeps to count against the grace window.
            self._candidates = {
                key: seen for key, seen in self._candidates.items()
                if key in found
            }

    def _record(self, invariant: str, subject: str, detail: str,
                quiescent: bool = False) -> None:
        key = (invariant, subject, detail)
        if key in self._reported:
            return
        self._reported.add(key)
        recorder = self.plane.obs.recorder
        trace_ctx = recorder.current_ctx()
        violation = Violation(
            invariant=invariant, subject=subject, detail=detail,
            time_ms=self.plane.sim.now, seed=self.plane.config.seed,
            quiescent=quiescent, trace_ctx=trace_ctx)
        self.violations.append(violation)
        counters = getattr(self.plane, "counters", None)
        if counters is not None:
            counters.increment("sanitizer.violation")
        if recorder.enabled:
            recorder.instant("sanitizer.violation", category="sanitizer",
                             invariant=invariant, subject=subject,
                             detail=detail)
        if self.fail_fast:
            raise InvariantViolationError([violation])

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def report(self) -> SanitizerReport:
        """The structured outcome so far (snapshot; cheap to take)."""
        return SanitizerReport(
            violations=tuple(self.violations),
            sweeps=self.sweeps,
            quiescent_checks=self.quiescent_checks,
            invariants=tuple(self.registry.names()),
        )
