#!/usr/bin/env python
"""Minimum line-coverage gate for the watched protocol modules, stdlib-only.

The container has no ``coverage``/``pytest-cov``, so this script measures
line coverage itself with :func:`sys.settrace`: it runs the listed
test files under a tracer that records executed lines of the watched
modules, derives each module's executable-line set from its compiled code
objects, and fails (exit 1) when any watched module's ratio falls below
the threshold.

Usage::

    python tools/check_coverage.py            # default targets, 85% floor
    python tools/check_coverage.py --threshold 0.9

Invoked by ``make coverage``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent

#: Modules whose coverage this gate protects.
DEFAULT_TARGETS = [
    REPO / "src" / "repro" / "faults" / "schedule.py",
    REPO / "src" / "repro" / "faults" / "injector.py",
    REPO / "src" / "repro" / "query" / "backoff.py",
    REPO / "src" / "repro" / "obs" / "__init__.py",
    REPO / "src" / "repro" / "obs" / "spans.py",
    REPO / "src" / "repro" / "obs" / "metrics.py",
    REPO / "src" / "repro" / "obs" / "critical_path.py",
    REPO / "src" / "repro" / "obs" / "export.py",
    REPO / "src" / "repro" / "query" / "admission.py",
    REPO / "src" / "repro" / "query" / "options.py",
    REPO / "src" / "repro" / "query" / "result.py",
    REPO / "src" / "repro" / "check" / "sanitizer.py",
    REPO / "src" / "repro" / "check" / "invariants.py",
    REPO / "src" / "repro" / "core" / "reservation.py",
    REPO / "src" / "repro" / "query" / "plan.py",
    REPO / "src" / "repro" / "query" / "executor.py",
    REPO / "src" / "repro" / "scribe" / "buckets.py",
    REPO / "src" / "repro" / "scribe" / "rebalance.py",
    REPO / "src" / "repro" / "scribe" / "scribe.py",
    REPO / "src" / "repro" / "pastry" / "node.py",
    REPO / "src" / "repro" / "pastry" / "overlay.py",
    REPO / "src" / "repro" / "net" / "network.py",
    REPO / "src" / "repro" / "sim" / "engine.py",
    REPO / "src" / "repro" / "sim" / "futures.py",
    REPO / "src" / "repro" / "transport" / "base.py",
    REPO / "src" / "repro" / "transport" / "codec.py",
    REPO / "src" / "repro" / "transport" / "realtime.py",
    REPO / "src" / "repro" / "transport" / "asyncio_transport.py",
    REPO / "src" / "repro" / "ext" / "selection.py",
    REPO / "src" / "repro" / "ext" / "economy.py",
    REPO / "src" / "repro" / "ext" / "autoscale.py",
    REPO / "src" / "repro" / "workloads" / "market.py",
]

#: Test files that exercise them.
DEFAULT_TESTS = [
    REPO / "tests" / "test_scribe_cache_coherence.py",
    REPO / "tests" / "test_metrics.py",
    REPO / "tests" / "test_faults_injector.py",
    REPO / "tests" / "test_chaos_properties.py",
    REPO / "tests" / "test_query_predicates_backoff.py",
    REPO / "tests" / "test_query_garbage.py",
    REPO / "tests" / "test_obs_spans.py",
    REPO / "tests" / "test_obs_metrics.py",
    REPO / "tests" / "test_obs_critical_path.py",
    REPO / "tests" / "test_obs_exporters.py",
    REPO / "tests" / "test_query_admission.py",
    REPO / "tests" / "test_api_surface.py",
    REPO / "tests" / "test_sanitizer.py",
    REPO / "tests" / "test_core_reservation.py",
    REPO / "tests" / "test_query_orphan_release.py",
    REPO / "tests" / "test_query_executor.py",
    REPO / "tests" / "test_query_planner.py",
    REPO / "tests" / "test_query_plan_execution.py",
    REPO / "tests" / "test_query_settings.py",
    REPO / "tests" / "test_scribe_buckets.py",
    REPO / "tests" / "test_property_range_oracle.py",
    REPO / "tests" / "test_rebalance.py",
    REPO / "tests" / "test_scribe_trees.py",
    REPO / "tests" / "test_anycast_sizes.py",
    REPO / "tests" / "test_sim_delivers_copies.py",
    REPO / "tests" / "test_scribe_aggregate.py",
    REPO / "tests" / "test_scribe_random_ops.py",
    REPO / "tests" / "test_pastry_routing.py",
    REPO / "tests" / "test_pastry_stabilization.py",
    REPO / "tests" / "test_pastry_isolation.py",
    REPO / "tests" / "test_transport_codec.py",
    REPO / "tests" / "test_transport_wire_golden.py",
    REPO / "tests" / "test_net_network.py",
    REPO / "tests" / "test_net_trace_ctx.py",
    REPO / "tests" / "test_sim_engine.py",
    REPO / "tests" / "test_sim_futures.py",
    REPO / "tests" / "test_request_table.py",
    REPO / "tests" / "test_engine_protocol.py",
    REPO / "tests" / "test_transport_conformance.py",
    REPO / "tests" / "test_transport_realtime.py",
    REPO / "tests" / "test_transport_asyncio.py",
    REPO / "tests" / "test_transport_wire_safety.py",
    REPO / "tests" / "test_transport_oracle.py",
    REPO / "tests" / "test_ext_churn.py",
    REPO / "tests" / "test_ext_economy.py",
    REPO / "tests" / "test_economy_live.py",
    REPO / "tests" / "test_market.py",
]


def executable_lines(path: Path) -> Set[int]:
    """Line numbers holding bytecode, from compiling the source.

    Walks every nested code object (functions, methods, comprehensions)
    and collects the lines its instructions map to — the same universe a
    line tracer can possibly report.
    """
    code = compile(path.read_text(), str(path), "exec")
    lines: Set[int] = set()
    stack = [code]
    while stack:
        current = stack.pop()
        for _start, _end, lineno in current.co_lines():
            if lineno is not None:
                lines.add(lineno)
        for const in current.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
    return lines


def make_tracer(hits: Dict[str, Set[int]]):
    """A settrace callback recording line events for watched filenames."""

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in hits:
            return None  # don't trace foreign frames at all
        if event == "line":
            hits[filename].add(frame.f_lineno)
        return tracer

    return tracer


def coverage_ratio(hit: Set[int], executable: Set[int]) -> float:
    """Fraction of executable lines hit (1.0 for an empty module)."""
    if not executable:
        return 1.0
    return len(hit & executable) / len(executable)


def run_tests_traced(tests: Iterable[Path],
                     hits: Dict[str, Set[int]]) -> int:
    """Run pytest on ``tests`` under the line tracer; returns its exit code."""
    import pytest

    tracer = make_tracer(hits)

    class Rearm:
        """CPython unsets a trace function that raises — and one called at
        the recursion limit does (the codec's runaway-nesting test gets
        there) — so every test starts with the tracer installed again."""

        @staticmethod
        def pytest_runtest_setup(item):
            sys.settrace(tracer)

    sys.settrace(tracer)
    try:
        return pytest.main(["-q", "-p", "no:cacheprovider",
                            *[str(t) for t in tests]], plugins=[Rearm])
    finally:
        sys.settrace(None)


def report(hits: Dict[str, Set[int]],
           executable: Dict[str, Set[int]]) -> List[Tuple[str, int, int, float]]:
    """Per-target (name, covered, executable, ratio) rows."""
    rows = []
    for filename in sorted(executable):
        exe = executable[filename]
        covered = hits.get(filename, set()) & exe
        rows.append((os.path.relpath(filename, REPO), len(covered),
                     len(exe), coverage_ratio(covered, exe)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threshold", type=float, default=0.85,
                        help="minimum per-module line coverage (default 0.85)")
    parser.add_argument("--targets", nargs="*", type=Path,
                        default=DEFAULT_TARGETS, help="modules to measure")
    parser.add_argument("--tests", nargs="*", type=Path,
                        default=DEFAULT_TESTS, help="test files to run")
    args = parser.parse_args(argv)

    src = str(REPO / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    # Tracing makes the property tests ~10x slower; reduced interleaving /
    # seed counts still touch every watched code path.
    os.environ.setdefault("RBAY_COHERENCE_CHECKS", "25")
    os.environ.setdefault("RBAY_CHAOS_SEEDS", "3")
    os.environ.setdefault("RBAY_ORACLE_SEEDS", "3")

    executable = {str(t.resolve()): executable_lines(t) for t in args.targets}
    hits: Dict[str, Set[int]] = {name: set() for name in executable}

    exit_code = run_tests_traced(args.tests, hits)
    if exit_code != 0:
        print(f"check_coverage: test run failed (pytest exit {exit_code})",
              file=sys.stderr)
        return 1

    failed = False
    print(f"{'module':52} {'covered':>8} {'lines':>6} {'ratio':>7}")
    for name, covered, total, ratio in report(hits, executable):
        flag = "" if ratio >= args.threshold else "  << below threshold"
        print(f"{name:52} {covered:8d} {total:6d} {ratio:6.1%}{flag}")
        if ratio < args.threshold:
            failed = True
    if failed:
        print(f"check_coverage: coverage below the {args.threshold:.0%} floor",
              file=sys.stderr)
        return 1
    print(f"check_coverage: all modules at or above {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
