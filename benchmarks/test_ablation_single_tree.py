"""Ablation: many per-attribute trees (RBAY) vs. one global tree (Astrolabe).

Related work (§V-C): "Astrolabe provides a generic aggregation abstraction
and uses a single static tree to aggregate all states.  SDIMS uses the same
approach but constructs multiple trees for better scalability."  RBAY's
position: per-attribute trees named by SHA-1 spread the roots — "the tree
roots, which are considered the most overloaded nodes, are now uniformly
spread over different NodeIds" (§II-C2).

We aggregate K attributes over the same population both ways and compare
how aggregation traffic concentrates.
"""

import pytest

from benchmarks.conftest import print_banner
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.net.site import SiteRegistry
from repro.obs.metrics import format_table, jain_fairness
from repro.pastry.overlay import Overlay
from repro.scribe.scribe import ScribeApplication
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams

N_NODES = 256
N_ATTRIBUTES = 40
MEMBERS_PER_ATTRIBUTE = 60
UPDATE_ROUNDS = 3


def build():
    sim = Simulator()
    streams = RandomStreams(606)
    registry = SiteRegistry()
    site = registry.add("S", "X")
    network = Network(sim, UniformLatencyModel(0.3))
    overlay = Overlay(sim, network, streams, registry)
    for _ in range(N_NODES):
        overlay.create_node(site)
    overlay.bootstrap()
    for node in overlay.nodes:
        node.register_app(ScribeApplication(sim))
    rng = streams.stream("members")
    memberships = [rng.sample(overlay.nodes, MEMBERS_PER_ATTRIBUTE)
                   for _ in range(N_ATTRIBUTES)]
    return sim, network, overlay, memberships


def run_per_attribute_trees():
    """RBAY: one tree per attribute; roots spread by SHA-1."""
    sim, network, overlay, memberships = build()
    for a, members in enumerate(memberships):
        for node in members:
            node.app("scribe").join(node, f"attr-{a}")
    sim.run()
    network.reset_counters()
    rng = RandomStreams(707).stream("updates")
    for _ in range(UPDATE_ROUNDS):
        for a, members in enumerate(memberships):
            for node in members:
                node.app("scribe").set_local(node, f"attr-{a}", "sum", rng.random())
        sim.run()
    inbound = [network.per_host_bytes_in.get(n.address, 0) for n in overlay.nodes]
    return {"hottest": max(inbound), "fairness": jain_fairness(inbound),
            "total": sum(inbound)}


def run_single_tree():
    """Astrolabe-style: every node in ONE tree; every attribute aggregates
    through the same root."""
    sim, network, overlay, memberships = build()
    scoped = [f"a{a}-sum" for a in range(N_ATTRIBUTES)]
    from repro.scribe.aggregate import SumFunction

    for node in overlay.nodes:
        app = node.app("scribe")
        for name in scoped:
            fn = SumFunction()
            fn.name = name
            app.functions[name] = fn
        app.join(node, "global")
    sim.run()
    network.reset_counters()
    rng = RandomStreams(707).stream("updates")
    for _ in range(UPDATE_ROUNDS):
        for a, members in enumerate(memberships):
            for node in members:
                node.app("scribe").set_local(node, "global", scoped[a], rng.random())
        sim.run()
    inbound = [network.per_host_bytes_in.get(n.address, 0) for n in overlay.nodes]
    return {"hottest": max(inbound), "fairness": jain_fairness(inbound),
            "total": sum(inbound)}


def run_experiment():
    return {"rbay": run_per_attribute_trees(), "single": run_single_tree()}


@pytest.mark.benchmark(group="ablation-single-tree")
def test_ablation_per_attribute_vs_single_tree(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rbay, single = results["rbay"], results["single"]

    print_banner(f"Ablation: {N_ATTRIBUTES} attributes aggregated over "
                 f"{N_NODES} nodes — per-attribute trees vs. one global tree")
    print(format_table(
        ["design", "hottest node (bytes in)", "Jain fairness"],
        [
            ["per-attribute trees (RBAY)", rbay["hottest"], f"{rbay['fairness']:.3f}"],
            ["single global tree (Astrolabe)", single["hottest"], f"{single['fairness']:.3f}"],
        ],
    ))

    # The single tree funnels every attribute's updates toward one root:
    # its hottest node carries much more than RBAY's hottest root.
    assert single["hottest"] > rbay["hottest"] * 2
    # RBAY spreads aggregation load more evenly.
    assert rbay["fairness"] > single["fairness"]
