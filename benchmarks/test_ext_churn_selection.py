"""Future-work experiments (paper §VI): churn levels and QoS selection.

Part A — "evaluate RBay's performance under different levels of churn in
resources and attribute values": we churn resource attributes at
increasing rates and measure how well tree membership tracks ground truth
and how query success degrades.

Part B — "methods that capture past and predict future churn ... to better
select appropriate resources": customers leasing nodes under node churn,
with and without stability-aware selection; the metric is the fraction of
leases that survive their term.
"""

import pytest

from benchmarks.conftest import print_banner
from repro.core.monitor import AttributeChurn
from repro.core.plane import RBay, RBayConfig
from repro.ext.churn import ChurnPredictor, ChurnTracker
from repro.ext.selection import QoSSelector, StabilityAwareCustomer
from repro.obs.metrics import format_table

CHURN_RATES = (0.0, 0.05, 0.25)


# ----------------------------------------------------------------------
# Part A: attribute churn vs. membership accuracy and query success
# ----------------------------------------------------------------------
def run_churn_level(rate: float):
    plane = RBay(RBayConfig(seed=81, nodes_per_site=12, jitter=False,
                            maintenance_interval_ms=500.0)).build()
    plane.sim.run()
    site = "Virginia"
    nodes = plane.site_nodes(site)
    admin = plane.admin(site)
    for node in nodes:
        admin.post_resource(node, "GPU", True)
    plane.sim.run()
    churn = AttributeChurn(plane.sim, plane.streams.stream("churn"),
                           nodes, "GPU", value_factory=lambda rng: True,
                           rate=rate, interval_ms=500.0)
    plane.start_maintenance()
    churn.start()
    plane.settle(10_000.0)
    churn.stop()
    plane.settle(2_000.0)  # one more maintenance round to converge
    plane.stop_maintenance()

    truth = sum(1 for n in nodes if n.has_attribute("GPU"))
    from repro.core.naming import site_tree
    tree = plane.tree_size(site_tree(site, "GPU"), via=nodes[0])
    customer = plane.make_customer("churn-user", site)
    hits = 0
    trials = 10
    for _ in range(trials):
        result = customer.query_once("SELECT 1 FROM Virginia WHERE GPU = true;").result()
        hits += bool(result.satisfied)
        if result.entries:
            customer.release_all(result)
            plane.sim.run()
    return {"rate": rate, "truth": truth, "tree": tree,
            "flips": churn.flips, "hit_rate": hits / trials}


# ----------------------------------------------------------------------
# Part B: lease survival with and without stability-aware selection
# ----------------------------------------------------------------------
LEASE_MS = 20_000.0
TRIALS = 30


def run_selection(use_selector: bool):
    plane = RBay(RBayConfig(seed=82, nodes_per_site=14, jitter=False,
                            lease_ms=LEASE_MS)).build()
    plane.sim.run()
    site = "Oregon"
    nodes = plane.site_nodes(site)
    admin = plane.admin(site)
    for node in nodes:
        admin.post_resource(node, "GPU", True)
    plane.sim.run()

    # Half the fleet is flaky: it crashes and recovers on a short cycle.
    rng = plane.streams.stream("flaky")
    flaky = set(rng.sample([n.address for n in nodes], len(nodes) // 2))
    tracker = ChurnTracker(plane.sim)
    for node in nodes:
        tracker.mark_up(node.address)
    # Build observable history: flaky nodes flap during a warm-up window.
    for address in flaky:
        offset = rng.uniform(0.0, 500.0)
        for i in range(8):
            plane.sim.schedule(offset + 1_000.0 * (2 * i + 1),
                               tracker.mark_down, address)
            plane.sim.schedule(offset + 1_000.0 * (2 * i + 2),
                               tracker.mark_up, address)
    plane.settle(20_000.0)

    predictor = ChurnPredictor(tracker)
    selector = QoSSelector(predictor)
    home = nodes[0]
    if use_selector:
        customer = StabilityAwareCustomer("picky", home,
                                          plane.streams.stream("pick"),
                                          selector, overask=3.0)
    else:
        customer = plane.make_customer("naive", site, home=home)

    survived = 0
    for trial in range(TRIALS):
        if use_selector:
            result = customer.query_stable(
                "SELECT 2 FROM Oregon WHERE GPU = true;").result()
        else:
            result = customer.query_once(
                "SELECT 2 FROM Oregon WHERE GPU = true;").result()
        if not result.satisfied:
            continue
        plane.sim.run()
        # During the lease, flaky nodes have a high chance of dying: model
        # one failure event per flaky leased node.
        lease_ok = True
        for entry in result.entries:
            if entry["address"] in flaky and rng.random() < 0.8:
                lease_ok = False
        survived += lease_ok
        customer.release_all(result)
        plane.sim.run()
    return survived / TRIALS


def run_experiment():
    part_a = [run_churn_level(rate) for rate in CHURN_RATES]
    part_b = {"naive": run_selection(False), "stability": run_selection(True)}
    return {"churn": part_a, "selection": part_b}


@pytest.mark.benchmark(group="ext-churn")
def test_churn_levels_and_stability_selection(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    print_banner("Future work A: membership tracking under attribute churn")
    rows = [
        [f"{r['rate']:.0%}", r["flips"], r["truth"], r["tree"],
         f"{r['hit_rate']:.0%}"]
        for r in results["churn"]
    ]
    print(format_table(
        ["churn rate/tick", "flips", "nodes with GPU", "tree size", "query hit rate"],
        rows,
    ))

    print_banner("Future work B: lease survival, naive vs. stability-aware selection")
    print(format_table(
        ["strategy", "lease survival"],
        [["naive (protocol order)", f"{results['selection']['naive']:.0%}"],
         ["stability-aware (churn predictor)", f"{results['selection']['stability']:.0%}"]],
    ))

    # Part A shapes: with zero churn the tree exactly matches ground truth
    # and queries always hit; with churn, membership re-converges to the
    # post-churn ground truth after maintenance.
    zero, low, high = results["churn"]
    assert zero["flips"] == 0
    assert zero["tree"] == zero["truth"]
    assert zero["hit_rate"] == 1.0
    for level in (low, high):
        assert level["flips"] > 0
        assert level["tree"] == level["truth"]  # converged after churn stops
    assert high["flips"] > low["flips"]

    # Part B shape: history-based selection keeps leases alive far more
    # often than naive protocol-order selection.
    assert results["selection"]["stability"] > results["selection"]["naive"] + 0.2
    assert results["selection"]["stability"] > 0.8
