"""Ablation: DEPAS auto-scaling on vs. off under a marketplace demand spike.

Two otherwise-identical federations serve the same open-loop,
zipf-weighted arrival stream (a million-user synthetic population, a 4x
demand spike mid-window) through the priced/credit-gated marketplace.
The elastic arm (``MarketSpec(autoscale=True)``) lets every site run its
own DEPAS loop — scale-out posts spare nodes at the current spot price,
scale-in withdraws idle postings; the fixed arm keeps the initial two
postings per site forever.  Spot repricing runs in both arms, so the
comparison isolates capacity elasticity.

The elastic arm must strictly beat the fixed arm on **satisfied demand**
(units granted / units demanded) and must actually actuate (scale-out
events > 0).  Revenue per site is reported for both arms; the runtime
invariant sanitizer rides along in both and must stay clean — reservation
hygiene and aggregate coherence hold through every scale-out/scale-in.
A 20-seed same-seed replay suite pins the determinism fingerprint.

Results land in ``benchmarks/results/market.json``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from benchmarks.conftest import print_banner
from repro.obs.metrics import format_table
from repro.workloads.market import MarketSpec, run_market

RESULTS_PATH = Path(__file__).parent / "results" / "market.json"

#: The spike ablation configuration (both arms differ only in
#: ``autoscale``).
BENCH_SPEC = MarketSpec(
    sites=4, nodes_per_site=8, seed=2017,
    users=1_048_576, arrival_rate_per_s=20.0,
    spike_start_ms=1_500.0, spike_ms=2_500.0, spike_multiplier=4.0,
    duration_ms=6_000.0, sanitize=True,
)

#: Small configuration for the 20-seed determinism replays.
DETERMINISM_SPEC = MarketSpec(
    sites=2, nodes_per_site=5, users=10_000,
    arrival_rate_per_s=10.0, duration_ms=1_500.0,
    spike_start_ms=500.0, spike_ms=600.0,
)

DETERMINISM_SEEDS = list(range(1, 21))


def _arm_row(metrics):
    starve = metrics["starvation_age_ms"]
    return [
        "elastic" if metrics["autoscale"] else "fixed",
        metrics["arrivals"],
        metrics["arrivals_filled"],
        f"{metrics['satisfied_demand']:.3f}",
        f"{metrics['jain_fairness']:.3f}",
        f"{metrics['revenue_total']:.1f}",
        f"{metrics['scale_out_events']}/{metrics['scale_in_events']}",
        f"{starve['p95']:.0f}",
        len(metrics["sanitizer"]["violations"]),
    ]


def run_experiment():
    """Both ablation arms plus the 20-seed determinism sweep."""
    elastic = run_market(BENCH_SPEC)
    fixed = run_market(dataclasses.replace(BENCH_SPEC, autoscale=False))
    fingerprints = {}
    for seed in DETERMINISM_SEEDS:
        spec = dataclasses.replace(DETERMINISM_SPEC, seed=seed)
        first = run_market(spec)
        second = run_market(spec)
        assert first["signature"] == second["signature"], \
            f"seed {seed} replay diverged"
        fingerprints[str(seed)] = first["signature"]
    return elastic, fixed, fingerprints


@pytest.mark.benchmark(group="market-autoscale")
def test_market_autoscale_ablation(benchmark):
    print_banner("Marketplace demand spike: DEPAS auto-scaling on vs. off "
                 f"({BENCH_SPEC.sites}x{BENCH_SPEC.nodes_per_site} nodes, "
                 f"{BENCH_SPEC.users:,} users, "
                 f"{BENCH_SPEC.spike_multiplier:g}x spike)")

    elastic, fixed, fingerprints = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1)

    print(format_table(
        ["arm", "arrivals", "filled", "satisfied", "jain", "revenue",
         "scale out/in", "starve p95 ms", "sanitizer"],
        [_arm_row(elastic), _arm_row(fixed)]))
    print(format_table(
        ["site", "elastic revenue", "fixed revenue",
         "elastic price", "elastic instances"],
        [[name,
          f"{elastic['revenue_per_site'][name]:.1f}",
          f"{fixed['revenue_per_site'][name]:.1f}",
          f"{elastic['final_price_per_site'][name]:.2f}",
          elastic["final_instances_per_site"][name]]
         for name in sorted(elastic["revenue_per_site"])]))

    # Same arrival schedule in both arms: the generator is open-loop.
    assert elastic["arrivals"] == fixed["arrivals"]

    # Elasticity must actuate and must pay off on satisfied demand.
    assert elastic["scale_out_events"] > 0
    assert fixed["scale_out_events"] == 0 and fixed["scale_in_events"] == 0
    assert elastic["satisfied_demand"] > fixed["satisfied_demand"]

    # Revenue per site is reported in both arms and non-negative.
    for arm in (elastic, fixed):
        assert set(arm["revenue_per_site"]) == set(elastic["revenue_per_site"])
        assert all(v >= 0.0 for v in arm["revenue_per_site"].values())

    # Reservation hygiene + aggregate coherence hold through elasticity.
    for arm in (elastic, fixed):
        assert arm["sanitizer"]["violations"] == []

    # 20-seed determinism fingerprint: every seed replayed byte-identical
    # inside run_experiment.
    assert len(fingerprints) == len(DETERMINISM_SEEDS)
    print(f"determinism: {len(fingerprints)} seeds replayed identically "
          f"(seed 1 sig={fingerprints['1'][:16]}...)")

    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps({
        "elastic": elastic,
        "fixed": fixed,
        "determinism": {
            "spec": {k: v for k, v
                     in dataclasses.asdict(DETERMINISM_SPEC).items()
                     if k != "fault_schedule"},
            "seeds": fingerprints,
        },
    }, indent=2, sort_keys=True))
    print(f"wrote {RESULTS_PATH}")
