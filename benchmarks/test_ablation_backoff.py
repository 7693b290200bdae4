"""Ablation: truncated exponential backoff vs. naive immediate retry.

The paper (§III-D) adds truncated exponential backoff to break the
"deadlock scenario" where concurrent customers repeatedly collide on the
same scarce resources, and argues the schedule penalizes aggressive
customers.  We race contenders for a pool that can satisfy only some of
them and compare completion under (a) exponential backoff and (b) naive
constant-delay retry.
"""

import pytest

from benchmarks.conftest import print_banner
from repro.core.plane import RBay, RBayConfig
from repro.obs.metrics import format_table

CONTENDERS = 6
POOL = 9          # each contender wants 3 nodes -> only 3 can win
WANT_EACH = 3


def build_pool(seed):
    plane = RBay(RBayConfig(seed=seed, nodes_per_site=POOL + 3, jitter=False,
                            reservation_hold_ms=300.0)).build()
    plane.sim.run()
    admin = plane.admin("Virginia")
    for node in plane.site_nodes("Virginia")[:POOL]:
        admin.post_resource(node, "FPGA", True)
    plane.sim.run()
    return plane


def race(plane, slot_ms, max_attempts=10):
    sql = f"SELECT {WANT_EACH} FROM Virginia WHERE FPGA = true;"
    customers = [
        plane.make_customer(f"racer-{i}", "Virginia",
                            backoff_slot_ms=slot_ms, max_attempts=max_attempts)
        for i in range(CONTENDERS)
    ]
    futures = [customer.request(sql) for customer in customers]
    outcomes = [future.result() for future in futures]
    winners = [o for o in outcomes if o.satisfied]
    return {
        "winners": len(winners),
        "attempts": [o.attempts for o in outcomes],
        "mean_attempts": sum(o.attempts for o in outcomes) / len(outcomes),
        "finish_ms": max(o.total_latency_ms for o in outcomes),
    }


def race_naive(plane, max_attempts=10):
    """Naive retry: every loser re-queries after the same constant delay,
    so colliding customers stay synchronized."""
    sql = f"SELECT {WANT_EACH} FROM Virginia WHERE FPGA = true;"
    customers = [
        plane.make_customer(f"naive-{i}", "Virginia", max_attempts=max_attempts)
        for i in range(CONTENDERS)
    ]
    sim = plane.sim
    results = {}

    def attempt(index, customer, tries):
        future = customer.query_once(sql)
        future.add_callback(lambda r: on_result(index, customer, tries, r))

    def on_result(index, customer, tries, result):
        if isinstance(result, Exception):
            results[index] = ("error", tries)
            return
        if result.satisfied:
            results[index] = ("won", tries)
            return
        if tries >= 10:
            results[index] = ("gave-up", tries)
            return
        sim.schedule(100.0, attempt, index, customer, tries + 1)  # constant!

    for i, customer in enumerate(customers):
        attempt(i, customer, 1)
    sim.run_until(lambda: len(results) == CONTENDERS)
    winners = [1 for status, _ in results.values() if status == "won"]
    return {
        "winners": len(winners),
        "attempts": [tries for _, tries in results.values()],
        "mean_attempts": sum(t for _, t in results.values()) / len(results),
    }


def run_experiment():
    backoff = race(build_pool(seed=301), slot_ms=50.0)
    naive = race_naive(build_pool(seed=301))
    return {"backoff": backoff, "naive": naive}


@pytest.mark.benchmark(group="ablation-backoff")
def test_ablation_backoff_vs_naive_retry(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    backoff, naive = results["backoff"], results["naive"]

    print_banner(
        f"Ablation: {CONTENDERS} contenders x SELECT {WANT_EACH} over a "
        f"{POOL}-node pool (at most {POOL // WANT_EACH} can win)"
    )
    print(format_table(
        ["strategy", "winners", "mean attempts", "attempts per contender"],
        [
            ["exp. backoff", backoff["winners"], f"{backoff['mean_attempts']:.1f}",
             sorted(backoff["attempts"])],
            ["naive retry", naive["winners"], f"{naive['mean_attempts']:.1f}",
             sorted(naive["attempts"])],
        ],
    ))

    capacity = POOL // WANT_EACH
    # Backoff desynchronizes contenders: the pool fills completely.
    assert backoff["winners"] == capacity
    # Naive constant-delay retry keeps contenders colliding: it never
    # outperforms backoff and wastes at least as many attempts.
    assert naive["winners"] <= backoff["winners"]
    assert naive["mean_attempts"] >= backoff["mean_attempts"]