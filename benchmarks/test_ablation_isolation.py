"""Ablation: administrative isolation on vs. off (paper §III-E).

The paper gives two reasons for site convergence: "(1) security — so that
updates and probes flowing in a site are not accessible outside the site,
and (2) efficiency — so that site-scoped queries can be locally processed
in parallel."

The plane's site trees are always site-scoped, so the isolation-off arm is
built one layer down: the same ``Virginia/GPU`` tree is joined with Scribe
routing scope ``"site"`` or ``"global"``, and each arm runs the tree work
of a local query — the size probe (steps 1-2) then the anycast to the
first member (steps 3-4) — from a Virginia node.

Efficiency half: with isolation, the tree's rendezvous stays inside the
site (sub-millisecond RTTs); without it, SHA-1 places the root uniformly
across the federation, so even a purely local query pays cross-site RTTs.
Security half: with isolation, zero messages for the site's topic are ever
delivered outside the site, joins included.
"""

import pytest

from benchmarks.conftest import print_banner
from repro.core.naming import site_tree
from repro.core.node import SubscriptionSpec
from repro.core.plane import RBay, RBayConfig
from repro.obs.metrics import format_table, mean, percentile

QUERIES = 40
NODES_PER_SITE = 15
TOPIC = site_tree("Virginia", "GPU")


def run_arm(scope: str):
    """Build the tree with routing ``scope``; time QUERIES local queries'
    tree work and count deliveries of its messages outside Virginia."""
    plane = RBay(RBayConfig(seed=909, nodes_per_site=NODES_PER_SITE,
                            jitter=False)).build()
    plane.sim.run()
    leaked = []

    def watch(msg):
        data = msg.payload.get("data") if isinstance(msg.payload, dict) else None
        if isinstance(data, dict) and data.get("topic") == TOPIC:
            if plane.network.host(msg.dst).site.name != "Virginia":
                leaked.append(msg.dst)

    plane.network.set_delivery_hook(watch)
    for node in plane.site_nodes("Virginia"):
        node.define_attribute("GPU", True)
        node.subscribe(SubscriptionSpec(topic=TOPIC, attribute="GPU",
                                        scope=scope))
    plane.sim.run()
    home = plane.site_nodes("Virginia")[0]
    latencies = []
    for _ in range(QUERIES):
        started = plane.sim.now
        size = home.scribe.tree_size(home, TOPIC, scope=scope).result()
        assert size == NODES_PER_SITE
        found = home.scribe.anycast(home, TOPIC, {
            "kind": "gquery", "query_id": 0, "k": 1, "predicates": [],
            "group_by": "GPU", "entries": []}, scope=scope).result()
        assert found["satisfied"]
        latencies.append(plane.sim.now - started)
        plane.sim.run()
    plane.network.set_delivery_hook(None)
    return {"latencies": latencies, "leaked": len(leaked)}


def run_experiment():
    return {"isolated": run_arm("site"), "global": run_arm("global")}


@pytest.mark.benchmark(group="ablation-isolation")
def test_ablation_administrative_isolation(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    isolated, global_ = results["isolated"], results["global"]

    print_banner("Ablation: local-site query latency with/without "
                 "administrative isolation (§III-E)")
    print(format_table(
        ["mode", "mean (ms)", "p90 (ms)", "site-topic msgs leaked off-site"],
        [
            ["isolation ON (site-scoped trees)",
             f"{mean(isolated['latencies']):.2f}",
             f"{percentile(isolated['latencies'], 90):.2f}",
             isolated["leaked"]],
            ["isolation OFF (global trees)",
             f"{mean(global_['latencies']):.2f}",
             f"{percentile(global_['latencies'], 90):.2f}",
             global_["leaked"]],
        ],
    ))

    # Security: not a single message about the site topic left the site.
    assert isolated["leaked"] == 0
    # Efficiency: with isolation every local query stays sub-10 ms; with
    # global trees, the (uniformly placed) root usually sits off-site, so
    # the mean pays cross-site RTTs.
    assert mean(isolated["latencies"]) < 10.0
    assert mean(global_["latencies"]) > mean(isolated["latencies"]) * 3
