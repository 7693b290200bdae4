"""Unit + regression tests for the runtime invariant sanitizer.

Two kinds of coverage live here:

* **harness mechanics** — registry plumbing, sweep cadence, quiescent
  idle-hook checks, the grace window, fail-fast, report serialization,
  and the zero-cost-off guarantee;
* **pinned pre-fix regressions** — each protocol bug fixed in this
  change is re-introduced via monkeypatch and the sanitizer must catch
  it, then the same scenario must run silent against the fixed code.
  These tests are the executable form of the case studies in
  ``docs/architecture.md`` §10.
"""

import pytest

from repro.check import (
    Invariant,
    InvariantRegistry,
    InvariantViolationError,
    Sanitizer,
    SanitizerReport,
    Violation,
)
from repro.core.plane import RBay, RBayConfig
from repro.core.reservation import ReservationTable
from repro.scribe.scribe import ScribeApplication

EXPECTED_INVARIANTS = [
    "tree_structure",
    "aggregate_coherence",
    "reservation_hygiene",
    "message_conservation",
    "child_acc_residency",
    "replica_set_agreement",
    "replica_child_partition",
    "replica_value_coherence",
]


def build_plane(seed=11, **overrides):
    cfg = dict(
        seed=seed,
        synthetic_sites=2,
        nodes_per_site=4,
        jitter=False,
        sanitize=True,
        sanitize_sweep_events=0,  # tests drive sweeps explicitly
    )
    cfg.update(overrides)
    return RBay(RBayConfig(**cfg)).build()


# ----------------------------------------------------------------------
# Registry plumbing
# ----------------------------------------------------------------------
def test_default_registry_holds_the_builtin_invariants():
    registry = InvariantRegistry.default()
    assert registry.names() == EXPECTED_INVARIANTS
    assert len(registry) == len(EXPECTED_INVARIANTS)
    for name in EXPECTED_INVARIANTS:
        assert name in registry
    assert "no_such_invariant" not in registry


def test_registry_register_replace_unregister():
    registry = InvariantRegistry()
    probe = Invariant(name="probe", check=lambda ctx: [])
    registry.register(probe)
    assert "probe" in registry and len(registry) == 1
    replacement = Invariant(name="probe", check=lambda ctx: [("x", "y")])
    registry.register(replacement)
    assert len(registry) == 1
    assert list(registry)[0] is replacement
    registry.unregister("probe")
    assert "probe" not in registry
    registry.unregister("probe")  # unknown names are a no-op


# ----------------------------------------------------------------------
# Harness wiring
# ----------------------------------------------------------------------
def test_sanitize_off_installs_nothing():
    plane = RBay(RBayConfig(seed=3, synthetic_sites=2, nodes_per_site=3,
                            jitter=False)).build()
    assert plane.sanitizer is None
    assert plane.sim._step_hook is None
    assert plane.sim._idle_hook is None
    assert all(node.reservation.watcher is None for node in plane.nodes)
    assert plane.context.result_listeners == []


def test_sanitize_on_wires_hooks_and_watchers():
    plane = build_plane(sanitize_sweep_events=100)
    san = plane.sanitizer
    assert san is not None
    assert plane.sim._step_hook == san._on_step
    assert plane.sim._idle_hook == san._on_idle
    assert all(node.reservation.watcher == san._on_reservation_event
               for node in plane.nodes)
    assert san._on_result in plane.context.result_listeners
    injector = plane.install_faults()
    assert san._on_fault in injector.listeners


def test_detach_restores_everything():
    plane = build_plane(sanitize_sweep_events=100)
    plane.sanitizer.detach()
    assert plane.sim._step_hook is None
    assert plane.sim._idle_hook is None
    assert all(node.reservation.watcher is None for node in plane.nodes)
    assert plane.context.result_listeners == []


def test_sweep_cadence_counts_simulator_events():
    plane = build_plane(sanitize_sweep_events=20)
    for i in range(100):
        plane.sim.schedule(float(i), lambda: None)
    plane.sim.run()
    san = plane.sanitizer
    assert san.sweeps >= 4  # 100 events at a 20-event cadence
    assert plane.counters.get("sanitizer.sweep") == san.sweeps
    assert san.report.ok, san.report.format()


def test_quiescent_check_fires_on_idle_drain():
    plane = build_plane()
    plane.sim.schedule(10.0, lambda: None)
    plane.sim.run()
    san = plane.sanitizer
    assert san.quiescent_checks >= 1
    assert plane.counters.get("sanitizer.quiescent_check") == san.quiescent_checks
    assert san.report.ok, san.report.format()


def test_sanitizer_does_not_perturb_the_run():
    """Observational guarantee: same seed, same traffic, sanitize on/off."""
    outcomes = []
    for sanitize in (False, True):
        plane = RBay(RBayConfig(seed=19, synthetic_sites=2, nodes_per_site=4,
                                jitter=False, sanitize=sanitize,
                                sanitize_sweep_events=50)).build()
        plane.start_maintenance()
        plane.settle(2_000.0)
        plane.stop_maintenance()
        plane.sim.run()
        outcomes.append((plane.network.messages_sent,
                         plane.sim.events_executed,
                         round(plane.sim.now, 6)))
    assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# Check semantics: quiescent-only, grace, fail-fast
# ----------------------------------------------------------------------
def test_quiescent_only_invariants_skipped_during_sweeps():
    plane = build_plane()
    plane.sanitizer.registry.register(Invariant(
        name="always_fails", check=lambda ctx: [("t", "boom")],
        quiescent_only=True))
    plane.sanitizer.sweep()
    assert plane.sanitizer.report.ok
    plane.sanitizer.check_quiescent()
    report = plane.sanitizer.report
    assert not report.ok
    assert report.counts() == {"always_fails": 1}
    assert report.violations[0].quiescent


def test_grace_window_defers_sweep_reports():
    plane = build_plane()
    plane.sanitizer.grace_ms = 500.0
    failing = [True]
    plane.sanitizer.registry.register(Invariant(
        name="flappy", grace=True,
        check=lambda ctx: [("t", "bad")] if failing[0] else []))
    plane.sanitizer.sweep()
    assert plane.sanitizer.report.ok  # candidate only, not yet reported
    # Advance past the grace window, keeping one event pending so the
    # drain stops short of quiescence (which checks strictly).
    plane.sim.schedule(600.0, lambda: None)
    plane.sim.schedule(10_000.0, lambda: None)
    plane.sim.run(until=700.0)
    plane.sanitizer.sweep()
    report = plane.sanitizer.report
    assert report.counts() == {"flappy": 1}
    assert not report.violations[0].quiescent


def test_grace_candidates_reset_when_the_condition_heals():
    plane = build_plane()
    plane.sanitizer.grace_ms = 500.0
    failing = [True]
    plane.sanitizer.registry.register(Invariant(
        name="flappy", grace=True,
        check=lambda ctx: [("t", "bad")] if failing[0] else []))
    plane.sanitizer.sweep()          # candidate appears
    failing[0] = False
    plane.sanitizer.sweep()          # healed: candidate dropped
    failing[0] = True
    plane.sim.schedule(600.0, lambda: None)
    plane.sim.schedule(10_000.0, lambda: None)
    plane.sim.run(until=700.0)
    plane.sanitizer.sweep()          # fresh candidate, clock restarts
    assert plane.sanitizer.report.ok


def test_fail_fast_raises_on_first_violation():
    plane = build_plane(sanitize_fail_fast=True)
    plane.sanitizer.registry.register(Invariant(
        name="always_fails", check=lambda ctx: [("t", "boom")]))
    with pytest.raises(InvariantViolationError) as exc:
        plane.sanitizer.sweep()
    assert exc.value.violations[0].invariant == "always_fails"
    assert "boom" in str(exc.value)


def test_duplicate_violations_reported_once():
    plane = build_plane()
    plane.sanitizer.registry.register(Invariant(
        name="always_fails", check=lambda ctx: [("t", "boom")]))
    plane.sanitizer.sweep()
    plane.sanitizer.sweep()
    assert plane.sanitizer.report.counts() == {"always_fails": 1}


def test_report_serialization_round_trip():
    violation = Violation(invariant="tree_structure", subject="load",
                          detail="two roots", time_ms=1234.5, seed=7,
                          quiescent=True, trace_ctx=(42, 9))
    report = SanitizerReport(violations=(violation,), sweeps=3,
                             quiescent_checks=2,
                             invariants=("tree_structure",))
    assert not report.ok
    assert report.counts() == {"tree_structure": 1}
    as_dict = report.to_dict()
    assert as_dict["ok"] is False
    assert as_dict["sweeps"] == 3
    assert as_dict["violations"][0]["trace_ctx"] == [42, 9]
    text = report.format()
    assert "tree_structure" in text and "two roots" in text
    assert "seed=7" in violation.describe()
    assert "quiescent" in violation.describe()


# ----------------------------------------------------------------------
# Reservation lifecycle mirror
# ----------------------------------------------------------------------
def test_commit_without_settled_result_is_flagged():
    plane = build_plane()
    table = plane.nodes[0].reservation
    table.try_reserve(5)
    table.commit(5, lease_ms=1_000.0)
    report = plane.sanitizer.report
    assert report.counts() == {"reservation_hygiene": 1}
    assert "never settled" in report.violations[0].detail


def test_commit_after_settled_result_is_clean():
    plane = build_plane()
    san = plane.sanitizer
    san.finished_queries.add(5)
    san.satisfied_committed.add(5)
    table = plane.nodes[0].reservation
    table.try_reserve(5)
    table.commit(5, lease_ms=1_000.0)
    assert san.report.ok, san.report.format()


# ----------------------------------------------------------------------
# Pinned regression: the try_reserve demote-after-commit bug
# ----------------------------------------------------------------------
def _buggy_try_reserve(self, query_id):
    """The historical ``ReservationTable.try_reserve``: a duplicate
    reserve from the lease-holding query demoted the committed lease back
    to a short timed hold."""
    self._gc()
    if self._holder is not None and self._holder != query_id:
        return False
    self._holder = query_id
    self._committed = False
    self._expires_at = self._sim.now + self.hold_ms
    self._notify("reserved", query_id)
    return True


def test_sanitizer_catches_prefix_demote_bug(monkeypatch):
    plane = build_plane()
    san = plane.sanitizer
    san.finished_queries.add(9)
    san.satisfied_committed.add(9)
    table = plane.nodes[0].reservation
    table.try_reserve(9)
    table.commit(9, lease_ms=60_000.0)
    assert san.report.ok
    monkeypatch.setattr(ReservationTable, "try_reserve", _buggy_try_reserve)
    assert table.try_reserve(9)  # the delayed duplicate anycast arrives
    report = san.report
    assert report.counts() == {"reservation_hygiene": 1}
    assert "demoted" in report.violations[0].detail
    assert not table.committed  # the lease really was demoted


def test_fixed_try_reserve_keeps_the_lease_silent():
    plane = build_plane()
    san = plane.sanitizer
    san.finished_queries.add(9)
    san.satisfied_committed.add(9)
    table = plane.nodes[0].reservation
    table.try_reserve(9)
    table.commit(9, lease_ms=60_000.0)
    assert table.try_reserve(9)  # same duplicate against the fixed table
    assert table.committed
    assert san.report.ok, san.report.format()


# ----------------------------------------------------------------------
# Pinned regression: the _maybe_prune missing-former_parent bug
# ----------------------------------------------------------------------
def _buggy_maybe_prune(self, node, state):
    """The historical ``ScribeApplication._maybe_prune``: a goodbye to an
    unreachable parent was silently dropped instead of deferred, so a
    crash-recovered parent kept the pruned branch's accumulator forever."""
    if state.member or state.children or state.is_root:
        return
    if state.parent is not None and node.network.has_host(state.parent):
        node.send_app(state.parent, self.name, "leave",
                      {"topic": state.topic})
    state.parent = None


def _run_prune_scenario(plane, topic="san/prune"):
    """Crash a leaf's parent, have the leaf leave while the parent is
    down, recover the parent, then run one maintenance round on the
    *leaf only* (the parent's own child-probe anti-entropy would mask the
    bug) and drain to quiescence."""
    for node in plane.nodes:
        node.scribe.join(node, topic)
    plane.sim.run()
    assert plane.sanitizer.report.ok, plane.sanitizer.report.format()

    by_addr = {node.address: node for node in plane.nodes}
    leaf = next(node for node in plane.nodes
                if (state := node.scribe.topics()[topic]).member
                and state.parent is not None and not state.children)
    parent = by_addr[leaf.scribe.topics()[topic].parent]

    injector = plane.install_faults()
    injector.crash_node(plane.nodes.index(parent))
    leaf.scribe.leave(leaf, topic)
    plane.sim.run()

    injector.recover_node(plane.nodes.index(parent))
    plane.sim.schedule(50.0, leaf.scribe.maintain, leaf)
    plane.sim.run()
    return plane.sanitizer.report


def test_sanitizer_catches_prefix_prune_bug(monkeypatch):
    monkeypatch.setattr(ScribeApplication, "_maybe_prune", _buggy_maybe_prune)
    report = _run_prune_scenario(build_plane(seed=23))
    assert "aggregate_coherence" in report.counts(), report.format()


def test_fixed_prune_defers_goodbye_and_stays_coherent():
    report = _run_prune_scenario(build_plane(seed=23))
    assert report.ok, report.format()


# ----------------------------------------------------------------------
# Direct invariant failure branches (each check must actually fire)
# ----------------------------------------------------------------------
from repro.check.invariants import (  # noqa: E402  (kept near their tests)
    _values_close,
    check_aggregate_coherence,
    check_child_acc_residency,
    check_message_conservation,
    check_reservation_hygiene,
    check_tree_structure,
)
from repro.check.sanitizer import SanitizerContext


TOPIC = "san/direct"


@pytest.fixture
def tree_plane():
    """A sanitized plane with every node joined to one global topic."""
    plane = build_plane(seed=31)
    for node in plane.nodes:
        node.scribe.join(node, TOPIC)
    plane.sim.run()
    assert plane.sanitizer.report.ok, plane.sanitizer.report.format()
    return plane


def _ctx(plane, quiescent=False):
    return SanitizerContext(plane, plane.sanitizer, quiescent=quiescent)


def _details(check, plane, quiescent=False):
    return [detail for _subject, detail in check(_ctx(plane, quiescent))]


def _tree_parts(plane):
    """(root_node, root_state, leaf_node, leaf_state, parent_state)."""
    states = {node: node.scribe.topics()[TOPIC] for node in plane.nodes}
    root = next(n for n, s in states.items() if s.is_root)
    leaf = next(n for n, s in states.items()
                if s.parent is not None and not s.children)
    by_addr = {n.address: n for n in plane.nodes}
    parent = by_addr[states[leaf].parent]
    return root, states[root], leaf, states[leaf], states[parent]


def test_tree_check_flags_unlisted_child(tree_plane):
    _, _, leaf, leaf_state, parent_state = _tree_parts(tree_plane)
    del parent_state.children[leaf.address]
    assert any("does not list it as a child" in d
               for d in _details(check_tree_structure, tree_plane))


def test_tree_check_flags_unacknowledged_child(tree_plane):
    _, _, _, leaf_state, _ = _tree_parts(tree_plane)
    leaf_state.parent = None  # child forgot, parent still lists it
    assert any("acknowledges neither" in d
               for d in _details(check_tree_structure, tree_plane))


def test_tree_check_flags_root_with_parent(tree_plane):
    _, root_state, leaf, _, _ = _tree_parts(tree_plane)
    root_state.parent = leaf.address
    assert any("still holds a parent pointer" in d
               for d in _details(check_tree_structure, tree_plane))


def test_tree_check_flags_parent_cycle(tree_plane):
    _, _, leaf, leaf_state, parent_state = _tree_parts(tree_plane)
    parent_state.parent = leaf.address  # now each points at the other
    parent_state.is_root = False
    assert any("cycles at" in d
               for d in _details(check_tree_structure, tree_plane))


def test_tree_check_flags_multiple_roots(tree_plane):
    _, _, _, leaf_state, _ = _tree_parts(tree_plane)
    leaf_state.is_root = True
    assert any("multiple live roots" in d
               for d in _details(check_tree_structure, tree_plane))


def test_tree_check_flags_missing_root(tree_plane):
    _, root_state, _, _, _ = _tree_parts(tree_plane)
    root_state.is_root = False
    assert any("no live root" in d
               for d in _details(check_tree_structure, tree_plane))


def test_tree_check_flags_mis_anchored_root(tree_plane):
    root, root_state, leaf, leaf_state, _ = _tree_parts(tree_plane)
    # Move the root flag to a node the routing oracle disagrees with.
    root_state.is_root = False
    leaf_state.is_root = True
    leaf_state.parent = None
    assert any("anchors the key at" in d
               for d in _details(check_tree_structure, tree_plane))


def test_coherence_check_flags_corrupt_accumulator(tree_plane):
    _, _, _, _, parent_state = _tree_parts(tree_plane)
    child_addr = next(iter(parent_state.child_acc["count"]))
    parent_state.child_acc["count"][child_addr] = 5  # silent over-count
    details = _details(check_aggregate_coherence, tree_plane, quiescent=True)
    assert any("member ground truth" in d for d in details)


def test_residency_check_flags_foreign_accumulator(tree_plane):
    _, root_state, _, _, _ = _tree_parts(tree_plane)
    root_state.child_acc.setdefault("count", {})[999_983] = 7
    assert any("neither a child nor a tracked former-parent" in d
               for d in _details(check_child_acc_residency, tree_plane))


def test_conservation_check_flags_leaks_and_inflight():
    plane = build_plane()
    net = plane.network
    net.messages_sent += 3  # books don't balance any more
    assert any("sent=" in d
               for d in _details(check_message_conservation, plane))
    net.messages_sent -= 3
    net.messages_in_flight += 1
    net.messages_sent += 1
    assert any("still in flight at quiescence" in d
               for d in _details(check_message_conservation, plane,
                                 quiescent=True))
    net.messages_in_flight -= 2
    assert any("negative in_flight" in d
               for d in _details(check_message_conservation, plane))


def test_hygiene_check_flags_unknown_query():
    plane = build_plane()
    plane.nodes[0].reservation.try_reserve(4_242)
    assert any("unknown query" in d
               for d in _details(check_reservation_hygiene, plane))


def test_hygiene_check_flags_over_long_hold():
    plane = build_plane()
    san = plane.sanitizer
    san.finished_queries.add(8)
    table = plane.nodes[0].reservation
    table.try_reserve(8)
    table._expires_at = plane.sim.now + 10 * table.hold_ms
    assert any("beyond one hold window" in d
               for d in _details(check_reservation_hygiene, plane))


def test_hygiene_check_flags_hold_surviving_settlement():
    plane = build_plane()
    san = plane.sanitizer
    san.finished_queries.add(8)
    plane.nodes[0].reservation.try_reserve(8)
    assert any("survived to quiescence" in d
               for d in _details(check_reservation_hygiene, plane,
                                 quiescent=True))


def test_values_close_semantics():
    assert _values_close(1.0, 1.0 + 1e-12)
    assert not _values_close(1.0, 1.1)
    assert _values_close((1.0, "a"), [1.0 + 1e-12, "a"])
    assert not _values_close((1.0,), (1.0, 2.0))
    assert _values_close("x", "x")
    assert not _values_close(1.5, "x")  # TypeError branch -> plain ==
