"""Deterministic profiling harness for the event/dispatch hot path.

Runs the scale workload (:mod:`repro.workloads.scale`) under
:mod:`cProfile` and attributes inclusive/exclusive time to the named
stages of the hot path — the drain loop, routing-table lookups, message
construction, network dispatch, tree aggregation, query protocol, and
observability bookkeeping — so an optimization PR can show *which* stage
it attacked and by how much.

The workload itself is the deterministic scale driver: same spec + same
seed → identical simulated behaviour (and an identical run ``signature``),
so two profiles differ only in where wall-clock went.  Entry point:
``rbay profile`` (also ``make profile``).
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.metrics.stats import format_table
from repro.workloads.scale import ScaleSpec, run_scale

#: Attribution map: ordered (stage, predicate) pairs matched against each
#: profiled function's ``(filename, line, name)`` key.  First match wins,
#: so more specific stages come first.  Matching is on path *suffixes*
#: (module files), which keeps the report stable across checkouts.
_STAGES: List[Tuple[str, Tuple[str, ...]]] = [
    ("drain_loop", ("sim/engine.py", "heapq")),
    ("routing", ("pastry/routing_table.py", "pastry/nodeid.py",
                 "pastry/leafset.py", "pastry/node.py")),
    ("message_construction", ("net/message.py",)),
    ("dispatch", ("net/network.py", "net/latency.py", "transport/base.py")),
    ("aggregation", ("scribe/scribe.py", "scribe/aggregate.py",
                     "scribe/topic.py", "scribe/buckets.py",
                     "scribe/rebalance.py")),
    ("caching", ("scribe/cache.py",)),
    ("query_protocol", ("query/", "sim/futures.py")),
    ("observability", ("obs/",)),
    ("workload_driver", ("workloads/", "core/")),
]

#: Default spec for ``rbay profile``: small enough to run in seconds,
#: big enough that the publish storm dominates like the 1,024-node run.
PROFILE_SPEC = ScaleSpec(sites=8, nodes_per_site=16, duration_ms=3_000.0,
                         queries=24, query_burst=8, query_window=8)


@dataclass
class StageRow:
    """One attribution row of the profile report."""

    stage: str
    exclusive_s: float
    calls: int
    top: List[Tuple[str, float]]  # heaviest functions (name, tottime)


def _stage_for(func: Tuple[str, int, str]) -> str:
    filename = func[0].replace("\\", "/")
    for stage, needles in _STAGES:
        for needle in needles:
            if needle in filename:
                return stage
    if func[0] == "~":  # C builtins (dict/list/method calls)
        return "builtins"
    return "other"


def profile_scale(spec: Optional[ScaleSpec] = None) -> Dict[str, Any]:
    """Profile one scale run; returns metrics + per-stage attribution.

    The returned dict extends :func:`repro.workloads.scale.run_scale`'s
    metrics with ``profile``: a list of stage dicts (exclusive seconds,
    call counts, heaviest functions) ordered by exclusive time.  The
    workload events and ``signature`` are byte-identical to an unprofiled
    run of the same spec; only ``wall_seconds`` carries profiler overhead.
    """
    spec = spec if spec is not None else PROFILE_SPEC
    profiler = cProfile.Profile()
    profiler.enable()
    metrics = run_scale(spec)
    profiler.disable()

    stats = pstats.Stats(profiler)
    stages: Dict[str, StageRow] = {}
    for func, (cc, nc, tottime, cumtime, callers) in stats.stats.items():
        stage = _stage_for(func)
        row = stages.get(stage)
        if row is None:
            row = stages[stage] = StageRow(stage, 0.0, 0, [])
        row.exclusive_s += tottime
        row.calls += nc
        row.top.append((f"{func[2]} ({func[0].rsplit('/', 1)[-1]}:{func[1]})",
                        tottime))
    report = []
    total = sum(row.exclusive_s for row in stages.values()) or 1.0
    for row in sorted(stages.values(), key=lambda r: -r.exclusive_s):
        row.top.sort(key=lambda item: -item[1])
        report.append({
            "stage": row.stage,
            "exclusive_s": round(row.exclusive_s, 4),
            "share": round(row.exclusive_s / total, 4),
            "calls": row.calls,
            "top": [{"fn": name, "s": round(seconds, 4)}
                    for name, seconds in row.top[:4]],
        })
    metrics["profile"] = report
    metrics["profile_total_s"] = round(total, 4)
    return metrics


def format_profile(metrics: Dict[str, Any], top: int = 3) -> str:
    """Human-readable stage table plus the heaviest functions per stage."""
    lines = [format_table(
        ["stage", "excl s", "share", "calls"],
        [[row["stage"], f"{row['exclusive_s']:.2f}",
          f"{100 * row['share']:.1f}%", f"{row['calls']:,}"]
         for row in metrics["profile"]])]
    lines.append("")
    lines.append("heaviest functions per stage:")
    for row in metrics["profile"]:
        if row["exclusive_s"] < 0.01:
            continue
        lines.append(f"  {row['stage']}:")
        for item in row["top"][:top]:
            lines.append(f"    {item['s']:8.3f}s  {item['fn']}")
    lines.append("")
    lines.append(
        f"events/sec {metrics['events_per_sec']:,.0f} "
        f"({metrics['workload_events']:,} workload events in "
        f"{metrics['wall_seconds']:.2f}s wall, profiler overhead included)  "
        f"signature {metrics['signature'][:16]}…")
    return "\n".join(lines)
