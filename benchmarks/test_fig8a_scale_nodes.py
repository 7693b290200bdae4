"""Figure 8a: query hops vs. datacenter size.

Paper setup (§IV-B1): 10,000 agents, 10 attributes each with 10% exposed,
1,000 atomic queries each asking one attribute; "the number of hops
increases linearly with an exponential increase in datacenter size"
(O(log N) DHT routing).

We sweep exponentially growing single-site overlays and measure the mean
hops per atomic query (a route to the attribute tree root).
"""

import math

import pytest

from benchmarks.conftest import print_banner
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.net.site import SiteRegistry
from repro.obs.metrics import format_table, mean
from repro.pastry.node import Application
from repro.pastry.nodeid import NodeId
from repro.pastry.overlay import Overlay
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams

SIZES = (256, 512, 1024, 2048, 4096, 8192, 16384)  # up to the paper's 16,000 agents
QUERIES = 400
ATTRIBUTES = 100  # attribute key space for atomic queries


class Sink(Application):
    name = "sink"

    def __init__(self, log):
        self.log = log

    def deliver(self, node, key, msg):
        self.log.append(msg.hops)


def hops_for_size(n_nodes: int, seed: int = 5) -> float:
    sim = Simulator()
    streams = RandomStreams(seed)
    registry = SiteRegistry()
    site = registry.add("Site0", "X")
    network = Network(sim, UniformLatencyModel(0.25))
    overlay = Overlay(sim, network, streams, registry)
    for _ in range(n_nodes):
        overlay.create_node(site)
    overlay.bootstrap()
    log = []
    for node in overlay.nodes:
        node.register_app(Sink(log))
    rng = streams.stream("queries")
    keys = [NodeId.from_key(f"attr-{i}") for i in range(ATTRIBUTES)]
    for _ in range(QUERIES):
        source = rng.choice(overlay.nodes)
        source.route(rng.choice(keys), "sink", {})
    sim.run()
    assert len(log) == QUERIES
    return mean([float(h) for h in log])


def run_experiment():
    return {size: hops_for_size(size) for size in SIZES}


@pytest.mark.benchmark(group="fig8a")
def test_fig8a_hops_scale_with_nodes(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    print_banner("Figure 8a: mean hops per atomic query vs. #nodes "
                 "(expect O(log_16 N) growth)")
    rows = [
        [size, f"{results[size]:.2f}", f"{math.log(size, 16):.2f}"]
        for size in SIZES
    ]
    print(format_table(["#nodes", "mean hops", "log16(N)"], rows))

    # Shape: hops grow with exponential node count...
    assert results[SIZES[-1]] > results[SIZES[0]]
    # ...but stay within the Pastry bound log_2^b(N) + slack.
    for size in SIZES:
        assert results[size] <= math.ceil(math.log(size, 16)) + 1.5
    # Roughly linear in log N: doubling N adds a bounded increment.
    increments = [results[b] - results[a] for a, b in zip(SIZES, SIZES[1:])]
    assert max(increments) < 1.2
