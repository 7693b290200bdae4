"""Scale push: the event core at 1,024+ nodes.

The acceptance experiment for the high-throughput core: a 32-site x
32-node synthetic federation under a publish storm (every node refreshes
three load aggregates every 50 ms) plus a concurrent composite-query
stream admitted through the bounded window (event-loop batch drain +
Event free-list, same-destination delivery coalescing, debounced
``agg_push_batch`` roll-ups).

Results land in ``benchmarks/results/scale.json``.  Set
``RBAY_SCALE_FULL=1`` to extend the sweep to 2,048- and 4,096-node
federations (several minutes of wall-clock).
"""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from benchmarks.conftest import print_banner
from repro.metrics.stats import format_table
from repro.workloads.scale import ScaleSpec, run_scale

RESULTS_PATH = Path(__file__).parent / "results" / "scale.json"

#: Small configuration for the same-seed determinism replay.
DETERMINISM_SPEC = ScaleSpec(sites=4, nodes_per_site=8, duration_ms=2_000.0,
                             queries=16, query_burst=8, query_window=4)


def _row(metrics):
    return [
        metrics["total_nodes"],
        f"{metrics['wall_seconds']:.2f}",
        f"{metrics['events_per_sec']:,.0f}",
        f"{metrics['messages_sent']:,}",
        f"{metrics['queries_satisfied']}/{metrics['queries_completed']}",
        f"{metrics['query_latency_ms']['p50']:.0f}",
        f"{metrics['query_latency_ms']['p99']:.0f}",
    ]


def run_experiment():
    """The 1,024-node run, a determinism replay, optional big sweep."""
    spec = ScaleSpec()
    run = run_scale(spec)

    first, second = run_scale(DETERMINISM_SPEC), run_scale(DETERMINISM_SPEC)
    determinism = {
        "signature": first["signature"],
        "replay_identical": first["signature"] == second["signature"],
    }

    sweep = []
    if os.environ.get("RBAY_SCALE_FULL"):
        for sites in (64, 128):  # 2,048- and 4,096-node federations
            big = dataclasses.replace(spec, sites=sites, queries=64)
            sweep.append(run_scale(big))

    return {"run": run, "determinism": determinism, "sweep": sweep}


@pytest.mark.benchmark(group="scale")
def test_scale(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    run, determinism = results["run"], results["determinism"]

    print_banner(
        f"Scale push: {run['total_nodes']}-node federation, "
        f"publish storm + {run['queries_submitted']} concurrent queries")
    print(format_table(
        ["nodes", "wall s", "events/s", "messages",
         "satisfied", "p50 ms", "p99 ms"],
        [_row(run), *(_row(m) for m in results["sweep"])]))
    print(f"determinism: replay_identical={determinism['replay_identical']} "
          f"sig={determinism['signature'][:16]}...")

    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))

    # Same seed -> byte-identical outcomes.
    assert determinism["replay_identical"], "replay diverged"
    assert run["queries_completed"] == run["queries_submitted"]
