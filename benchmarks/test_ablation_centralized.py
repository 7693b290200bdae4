"""Ablation: centralized (Ganglia-style) vs. decentralized (RBAY).

The paper argues (§II-A, §II-C1) that the centralized model's master "is
still the bottleneck as it maintains the snapshots of all cluster states
and becomes the only point to interact with admins and queries", whereas
RBAY "balances the central load to decentralized peers".

We run both designs over the same simulated 8-site network and workload
size and compare (a) the traffic concentration at the hottest host and
(b) how the hottest host's inbound load scales with federation size.
"""

import pytest

from benchmarks.conftest import build_dressed_plane, print_banner
from repro.baselines.ganglia import GangliaFederation
from repro.net.latency import TableIILatencyModel, make_ec2_registry
from repro.net.network import Network
from repro.obs.metrics import format_table, jain_fairness
from repro.query.predicates import Predicate
from repro.sim.engine import Simulator
from repro.workloads.queries import QueryWorkload

NODES_PER_SITE = (10, 20, 40)
MONITORING_WINDOW_MS = 10_000.0
QUERIES = 80


def run_ganglia(nodes_per_site: int):
    sim = Simulator()
    registry = make_ec2_registry()
    network = Network(sim, TableIILatencyModel())
    federation = GangliaFederation(sim, network, registry[0])
    next_id = 0
    for site in registry:
        federation.add_cluster(site, list(range(next_id, next_id + nodes_per_site)))
        next_id += nodes_per_site
    for i, node in enumerate(federation.nodes):
        node.set_attribute("instance_type", f"type{i % 23}")
        node.set_attribute("CPU_utilization", float(i % 100))
    federation.start(announce_interval_ms=1_000.0, poll_interval_ms=1_000.0)
    sim.run(until=MONITORING_WINDOW_MS)
    client = federation.make_client(registry.by_name("Tokyo"))
    for i in range(QUERIES):
        client.query(federation.manager.address,
                     [Predicate("instance_type", "=", f"type{i % 23}")],
                     k=1).result()
    federation.stop()
    sim.run()
    inbound = network.per_host_bytes_in
    hottest = max(inbound.values())
    total = sum(inbound.values())
    return {
        "hottest_bytes": hottest,
        "hottest_share": hottest / total,
        "manager_bytes": federation.manager_inbound_bytes(),
        "fairness": jain_fairness(
            [inbound.get(h.address, 0) for h in network.hosts()]
        ),
    }


def run_rbay(nodes_per_site: int):
    plane, workload = build_dressed_plane(seed=123, nodes_per_site=nodes_per_site,
                                          jitter=False)
    network = plane.network
    network.reset_counters()
    plane.monitor.track_many(plane.nodes)
    plane.monitor.start()
    plane.start_maintenance()
    plane.settle(MONITORING_WINDOW_MS)
    generator = QueryWorkload(plane.streams.stream("abl"),
                              [s.name for s in plane.registry], k=1)
    customer = plane.make_customer("abl-user", "Tokyo")
    for sql, payload in generator.stream("Tokyo", 8, QUERIES):
        customer.query_once(sql, payload=payload).result()
    plane.monitor.stop()
    plane.stop_maintenance()
    plane.sim.run()
    inbound = network.per_host_bytes_in
    hottest = max(inbound.values())
    total = sum(inbound.values())
    return {
        "hottest_bytes": hottest,
        "hottest_share": hottest / total,
        "fairness": jain_fairness(
            [inbound.get(n.address, 0) for n in plane.nodes]
        ),
    }


def run_experiment():
    return {
        n: {"ganglia": run_ganglia(n), "rbay": run_rbay(n)}
        for n in NODES_PER_SITE
    }


@pytest.mark.benchmark(group="ablation-centralized")
def test_ablation_centralized_vs_decentralized(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    print_banner("Ablation: centralized master vs. RBAY decentralized plane\n"
                 "(10 s of monitoring + 80 federation-wide queries)")
    rows = []
    for n in NODES_PER_SITE:
        g, r = results[n]["ganglia"], results[n]["rbay"]
        rows.append([
            n * 8,
            f"{g['hottest_share'] * 100:.0f}%",
            f"{r['hottest_share'] * 100:.1f}%",
            f"{g['fairness']:.3f}",
            f"{r['fairness']:.3f}",
        ])
    print(format_table(
        ["#nodes", "central hottest-host share", "RBAY hottest-host share",
         "central fairness", "RBAY fairness"],
        rows,
    ))

    for n in NODES_PER_SITE:
        g, r = results[n]["ganglia"], results[n]["rbay"]
        # The centralized design concentrates traffic at one host far more
        # than RBAY's worst node (which is just the busiest query interface).
        assert g["hottest_share"] > r["hottest_share"] * 2
        # RBAY spreads load more evenly across the population.
        assert r["fairness"] > g["fairness"]

    # The master absorbs a ~constant share of all traffic regardless of
    # scale, while RBAY's hottest node dilutes as the federation grows.
    central_shares = [results[n]["ganglia"]["hottest_share"] for n in NODES_PER_SITE]
    rbay_shares = [results[n]["rbay"]["hottest_share"] for n in NODES_PER_SITE]
    assert min(central_shares) > 0.25
    assert rbay_shares[-1] < rbay_shares[0]

    # The manager's inbound bytes grow ~linearly with federation size;
    # RBAY's hottest node grows much more slowly.
    g_growth = (results[NODES_PER_SITE[-1]]["ganglia"]["manager_bytes"]
                / results[NODES_PER_SITE[0]]["ganglia"]["manager_bytes"])
    r_growth = (results[NODES_PER_SITE[-1]]["rbay"]["hottest_bytes"]
                / max(results[NODES_PER_SITE[0]]["rbay"]["hottest_bytes"], 1))
    assert g_growth > 2.5          # ~4x nodes -> ~4x manager load
    assert r_growth < g_growth     # decentralized hot spot scales slower
