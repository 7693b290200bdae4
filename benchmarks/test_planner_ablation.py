"""Ablation: the range planner on vs. off, zipf-skewed values.

Two otherwise-identical 64-node federations carry the same zipf-skewed
``CPU_utilization`` distribution (seeded, byte-identical values) and the
same deterministic mix of narrow tail-range and GROUP BY queries:

* **planner on** — the default: a range predicate probes and searches
  only the buckets its interval overlaps, GROUP BY is pushed into bucket
  roll-ups when the predicates align;
* **planner off** — ``QueryOptions(planner=False)`` on every query:
  every range query floods the whole bucket family with strict member
  checks.

Both arms must return byte-identical canonical rows on every query; the
planner arm must spend strictly fewer messages overall and on the range
subset.  The measured series is written to
``benchmarks/results/planner_ablation.json``.
"""

import json
import random
from pathlib import Path

import pytest

from benchmarks.conftest import print_banner
from repro.core.plane import RBay, RBayConfig
from repro.obs.metrics import format_table, mean
from repro.query.options import QueryOptions
from repro.workloads.skewed import (
    SkewedSpec,
    assign_skewed_values,
    range_query_mix,
)

SEED = 2017
SITES = 4
NODES_PER_SITE = 16
QUERIES = 16
RESULTS_PATH = Path(__file__).parent / "results" / "planner_ablation.json"


def canonical_rows(result):
    """Order-independent canonical form of a query's rows."""
    if result.entries and "count" in result.entries[0]:
        return sorted((e["group"], e["count"]) for e in result.entries)
    return sorted(e["address"] for e in result.entries)


def run_arm(planner: bool):
    """One plane, the full query mix; returns (summary, canonical rows)."""
    plane = RBay(RBayConfig(
        seed=SEED, synthetic_sites=SITES, nodes_per_site=NODES_PER_SITE,
        jitter=False)).build()
    spec = SkewedSpec()
    assign_skewed_values(plane, random.Random(SEED * 31 + 7), spec)
    plane.settle(3_000.0)

    per_query = []
    rows_by_query = []
    for kind, sql in range_query_mix(random.Random(SEED * 37 + 11),
                                     spec, QUERIES):
        plane.network.reset_counters()
        result = plane.query(sql, options=QueryOptions(planner=planner))
        messages = plane.network.messages_sent
        rows = canonical_rows(result)
        for node in plane.nodes:
            node.reservation.release(result.query_id)
        plane.sim.run()
        per_query.append({"kind": kind, "sql": sql, "messages": messages,
                          "latency_ms": result.latency_ms,
                          "rows": len(rows)})
        rows_by_query.append(rows)

    plan_counters = {key: value
                     for key, value in plane.counters.snapshot().items()
                     if key.startswith("query.plan.")}
    summary = {
        "planner": planner,
        "nodes": len(plane.nodes),
        "per_query": per_query,
        "total_messages": sum(q["messages"] for q in per_query),
        "mean_messages_per_query": mean([q["messages"] for q in per_query]),
        "range_messages": sum(q["messages"] for q in per_query
                              if q["kind"] == "range"),
        "group_messages": sum(q["messages"] for q in per_query
                              if q["kind"] == "group"),
        "plan_counters": plan_counters,
    }
    return summary, rows_by_query


def run_experiment():
    on, rows_on = run_arm(planner=True)
    off, rows_off = run_arm(planner=False)
    return {"on": on, "off": off, "rows_on": rows_on, "rows_off": rows_off}


@pytest.mark.benchmark(group="ablation-planner")
def test_planner_ablation(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    on, off = results["on"], results["off"]
    rows_on, rows_off = results["rows_on"], results["rows_off"]

    print_banner(f"Ablation: range planner on a "
                 f"{on['nodes']}-node federation "
                 f"({QUERIES} zipf-tail range/GROUP BY queries)")
    print(format_table(
        ["kind", "sql", "planner msgs", "flood msgs"],
        [[q_on["kind"], q_on["sql"][:46], q_on["messages"],
          q_off["messages"]]
         for q_on, q_off in zip(on["per_query"], off["per_query"])],
    ))
    print(f"total messages: planner={on['total_messages']}  "
          f"flood={off['total_messages']}  "
          f"({on['total_messages'] / off['total_messages']:.2f}x)")
    print(f"planner strategy counters: {on['plan_counters']}")

    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(
        {"config": {"seed": SEED, "sites": SITES,
                    "nodes_per_site": NODES_PER_SITE, "queries": QUERIES,
                    "zipf_s": SkewedSpec().zipf_s,
                    "buckets": SkewedSpec().buckets},
         "arms": {"on": on, "off": off},
         "identical_rows": rows_on == rows_off}, indent=2) + "\n")
    print(f"results written to {RESULTS_PATH}")

    # Byte-identical results on every query, planner on or off.
    for q_on, (r_on, r_off) in zip(on["per_query"],
                                   zip(rows_on, rows_off)):
        assert json.dumps(r_on) == json.dumps(r_off), q_on["sql"]
    # The planner must pay for itself on the skewed workload: fewer
    # messages per query overall, and on the range subset specifically.
    assert on["total_messages"] < off["total_messages"]
    assert on["range_messages"] < off["range_messages"]
    # The ablation only means something if the planner actually routed
    # predicates to bucket subsets, not just flooded.
    assert on["plan_counters"].get("query.plan.probe", 0) > 0
