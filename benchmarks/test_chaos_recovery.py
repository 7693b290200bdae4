"""Ablation: query-step retries under injected faults.

Sweeps the ambient message-loss rate while nodes crash and recover, and
compares two arms of the query protocol: retries on (per-step truncated
exponential backoff, the hardened default) versus retries off
(``QueryOptions(retries=0)`` — any lost protocol message fails the
step).  For each
rate we measure how many customer queries end satisfied, how many came
back degraded, and whether the plane reconverged after the faults healed.

Writes the sweep to ``benchmarks/results/chaos_recovery.json``.
"""

import json
import random
from pathlib import Path

import pytest

from benchmarks.conftest import print_banner
from repro.core.naming import instance_tree
from repro.core.plane import RBay, RBayConfig
from repro.faults import FaultSchedule
from repro.obs.metrics import format_table
from repro.query.executor import QueryResult
from repro.query.options import QueryOptions
from repro.query.sql import parse_query
from repro.workloads.generator import FederationWorkload, WorkloadSpec

RESULTS_PATH = Path(__file__).parent / "results" / "chaos_recovery.json"

DROP_RATES = (0.05, 0.15, 0.30)
SEEDS = (401, 402, 403, 404)
QUERIES = 8
CHAOS_MS = 6_000.0
QUIESCE_MS = 4_000.0


def run_arm(seed, drop_prob, retries):
    """One chaos run; returns per-run outcome metrics."""
    plane = RBay(RBayConfig(
        seed=seed,
        synthetic_sites=4,
        nodes_per_site=5,
        jitter=False,
        maintenance_interval_ms=500.0,
        reservation_hold_ms=1_000.0,
    )).build()
    workload = FederationWorkload(plane, WorkloadSpec(
        gate_policies=False, utilization_thresholds=())).apply()
    plane.sim.run()
    plane.settle(1_000.0)
    plane.context.site_timeout_ms = 1_500.0
    plane.context.probe_timeout_ms = 750.0
    plane.start_maintenance()

    schedule = FaultSchedule.randomized(
        random.Random(seed * 7 + 1),
        duration_ms=CHAOS_MS,
        node_count=len(plane.nodes),
        crash_fraction=0.2,
        mean_downtime_ms=1_500.0,
        site_names=[s.name for s in plane.registry],
        drop_prob=drop_prob,
    ).shifted(plane.sim.now)
    plane.install_faults(schedule)

    rng = random.Random(seed * 13 + 5)
    site_names = [s.name for s in plane.registry]
    futures = []
    for i in range(QUERIES):
        site = rng.choice(site_names)
        counts = workload.site_instance_population(site)
        populated = sorted(t for t, n in counts.items() if n > 0)
        itype = rng.choice(populated)
        customer = plane.make_customer(f"bench-{seed}-{i}", site)
        sql = f"SELECT 1 FROM {site} WHERE instance_type = '{itype}';"
        at = plane.sim.now + rng.uniform(0.1, 0.7) * CHAOS_MS

        def fire(customer=customer, sql=sql):
            futures.append(customer.home.apps["query"].execute(
                customer.home, parse_query(sql), QueryOptions(
                    caller=customer.name, deadline_ms=8_000.0,
                    retries=retries)))

        plane.sim.schedule_at(at, fire)

    plane.run(until=plane.sim.now + CHAOS_MS + QUIESCE_MS)
    plane.stop_maintenance()
    plane.sim.run()

    results = [f.value for f in futures if isinstance(f.value, QueryResult)]
    reconverged = True
    for site in site_names:
        counts = workload.site_instance_population(site)
        itype = max(counts, key=counts.get)
        via = plane.site_nodes(site)[0]
        if plane.tree_size(instance_tree(site, itype), via=via) != counts[itype]:
            reconverged = False
    return {
        "queries": len(futures),
        "satisfied": sum(1 for r in results if r.satisfied),
        "degraded": sum(1 for r in results if r.degraded),
        "retries": sum(r.retries for r in results),
        "reconverged": reconverged,
    }


def run_sweep():
    sweep = []
    for drop_prob in DROP_RATES:
        arms = {}
        for label, retries in (("retries_on", 2), ("retries_off", 0)):
            totals = {"queries": 0, "satisfied": 0, "degraded": 0,
                      "retries": 0, "reconverged": 0}
            for seed in SEEDS:
                outcome = run_arm(seed, drop_prob, retries)
                for key in ("queries", "satisfied", "degraded", "retries"):
                    totals[key] += outcome[key]
                totals["reconverged"] += int(outcome["reconverged"])
            totals["success_rate"] = totals["satisfied"] / totals["queries"]
            arms[label] = totals
        sweep.append({"drop_prob": drop_prob, **{
            f"{label}_{k}": v for label, totals in arms.items()
            for k, v in totals.items()}})
    return sweep


@pytest.mark.benchmark(group="chaos-recovery")
def test_chaos_recovery_retries_ablation(benchmark):
    sweep = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    print_banner(
        f"Chaos recovery: {len(SEEDS)} seeds x {QUERIES} queries per arm, "
        f"crashes + ambient loss, retries on (2) vs off (0)")
    print(format_table(
        ["drop", "on: sat", "off: sat", "on: degraded", "off: degraded",
         "on: retries", "on: reconv", "off: reconv"],
        [[row["drop_prob"],
          f"{row['retries_on_satisfied']}/{row['retries_on_queries']}",
          f"{row['retries_off_satisfied']}/{row['retries_off_queries']}",
          row["retries_on_degraded"], row["retries_off_degraded"],
          row["retries_on_retries"],
          f"{row['retries_on_reconverged']}/{len(SEEDS)}",
          f"{row['retries_off_reconverged']}/{len(SEEDS)}"]
         for row in sweep],
    ))

    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(
        {"config": {"drop_rates": DROP_RATES, "seeds": SEEDS,
                    "queries_per_run": QUERIES, "chaos_ms": CHAOS_MS,
                    "quiesce_ms": QUIESCE_MS},
         "sweep": sweep}, indent=2) + "\n")
    print(f"results written to {RESULTS_PATH}")

    for row in sweep:
        # Retries must strictly beat no-retries at every loss rate...
        assert row["retries_on_satisfied"] > row["retries_off_satisfied"], (
            f"retries did not help at drop={row['drop_prob']}")
        # ...and the retry machinery must actually have been exercised.
        assert row["retries_on_retries"] > 0
        # Reconvergence is a maintenance-plane property: both arms heal.
        assert row["retries_on_reconverged"] == len(SEEDS)
        assert row["retries_off_reconverged"] == len(SEEDS)
