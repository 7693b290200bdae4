"""Figure 8b: load balance of query forwarding across NodeIds.

Paper setup (§IV-B2): the footprints of 1,000 queries over 10 distinct
resource keys (Q1..Q10) are tracked; forwarding work is "evenly distributed
across all NodeIds, with an average of 100 forwards" — because SHA-1-placed
keys converge at uniformly spread rendezvous nodes.

We issue 1,000 queries over 10 keys on a 2,048-node overlay, count per-node
forwarding, and check the spread of both per-key rendezvous placement and
per-node forwarding load.
"""

import pytest

from benchmarks.conftest import print_banner
from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.net.site import SiteRegistry
from repro.obs.metrics import format_table, jain_fairness, mean
from repro.pastry.node import Application
from repro.pastry.nodeid import NodeId
from repro.pastry.overlay import Overlay
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams

N_NODES = 2048
N_QUERIES = 1000
N_KEYS = 10


class Sink(Application):
    name = "sink"

    def __init__(self, delivered):
        self.delivered = delivered

    def deliver(self, node, key, msg):
        self.delivered.append((msg.payload["data"]["q"], node.address))


def run_experiment():
    sim = Simulator()
    streams = RandomStreams(13)
    registry = SiteRegistry()
    site = registry.add("Site0", "X")
    network = Network(sim, UniformLatencyModel(0.25))
    overlay = Overlay(sim, network, streams, registry)
    for _ in range(N_NODES):
        overlay.create_node(site)
    overlay.bootstrap()
    delivered = []
    for node in overlay.nodes:
        node.register_app(Sink(delivered))

    keys = [NodeId.from_key(f"Q{i + 1}") for i in range(N_KEYS)]
    rng = streams.stream("queries")
    for i in range(N_QUERIES):
        source = rng.choice(overlay.nodes)
        source.route(keys[i % N_KEYS], "sink", {"q": i % N_KEYS})
    sim.run()

    per_key_forwards = {}
    for q, address in delivered:
        per_key_forwards.setdefault(q, []).append(address)
    forward_counts = {
        node.address: node.stats["route_forwarded"] for node in overlay.nodes
    }
    root_positions = [keys[q].value for q in range(N_KEYS)]
    return {
        "delivered": delivered,
        "forward_counts": forward_counts,
        "roots": {q: overlay.root_of(keys[q]).address for q in range(N_KEYS)},
        "root_positions": root_positions,
    }


@pytest.mark.benchmark(group="fig8b")
def test_fig8b_query_load_balance(benchmark):
    data = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    delivered = data["delivered"]
    assert len(delivered) == N_QUERIES

    # Per-key delivery counts (the paper's ~100 per query key).
    per_key = {}
    for q, _ in delivered:
        per_key[q] = per_key.get(q, 0) + 1

    print_banner("Figure 8b: forwarding footprint of 1,000 queries over 10 keys")
    rows = [
        [f"Q{q + 1}", per_key[q], data["roots"][q],
         f"{data['root_positions'][q] / (1 << 128):.3f}"]
        for q in sorted(per_key)
    ]
    print(format_table(["key", "queries", "rendezvous addr", "ring position"], rows))

    busy = [c for c in data["forward_counts"].values() if c > 0]
    print(f"\nforwarding nodes: {len(busy)} of {N_NODES}; "
          f"mean forwards/query ≈ {sum(busy) / N_QUERIES:.2f}; "
          f"Jain fairness over forwarders: {jain_fairness(busy):.3f}")

    # Shape: every key served ~100 queries.
    assert all(count == N_QUERIES // N_KEYS for count in per_key.values())
    # Rendezvous points are distinct nodes (decentralized lookup).
    assert len(set(data["roots"].values())) == N_KEYS
    # Keys spread over the ring: positions span at least half the space.
    positions = sorted(data["root_positions"])
    assert positions[-1] - positions[0] > (1 << 127)
    # Forwarding load is spread over many nodes, not a single hub.
    assert len(busy) > N_KEYS * 5
    top = max(busy)
    assert top < N_QUERIES  # no node sees anywhere near all queries
