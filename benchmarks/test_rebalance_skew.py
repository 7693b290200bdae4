"""Ablation: hot-tree root replication on vs. off under zipfian skew.

Two otherwise-identical single-site 64-node planes carry the same
zipf-skewed ``CPU_utilization`` distribution (seeded, byte-identical
values).  Under zipf the lowest bucket's tree holds roughly a third of
the population, and a flash crowd of grouped-count reads aimed at that
bucket concentrates every probe on one rendezvous root:

* **rebalance off** — every read routes to the hot root; its per-window
  message load is the per-node maximum of the whole federation;
* **rebalance on** — ``RBayConfig(rebalance=RebalanceConfig(...))``: the load-triggered
  balancer (docs/architecture.md §15) notices the hot windows, promotes
  the two leaf-set neighbors nearest the topic key to root replicas,
  re-partitions the root's children across them, and diverted readers
  are answered one hop away from a root-coherent snapshot.

Both arms must return byte-identical rows on every query — grouped
counts served from a replica snapshot are exact, and a full member
flood through the re-parented tree reaches exactly the same address
set.  The rebalanced arm must show a strictly lower per-node maximum
of received messages over the measured phase AND a strictly lower p99
read latency (direct replica hop vs. multi-hop rendezvous route).  The
runtime invariant sanitizer rides along in both arms and must stay
clean.  The measured series is written to
``benchmarks/results/rebalance_skew.json``.
"""

import json
import random
from pathlib import Path

import pytest

from benchmarks.conftest import print_banner
from repro.core.naming import site_tree
from repro.core.plane import RBay, RBayConfig
from repro.obs.metrics import format_table, mean, percentile
from repro.scribe.rebalance import RebalanceConfig
from repro.scribe.topic import topic_id
from repro.workloads.skewed import SkewedSpec, assign_skewed_values

SEED = 4099
NODES = 64
CUSTOMERS = 24
WARMUP_ROUNDS = 4
MEASURED_QUERIES = 24
WINDOW_MS = 400.0
RESULTS_PATH = Path(__file__).parent / "results" / "rebalance_skew.json"

SPEC = SkewedSpec()  # 8 buckets over [0, 100], zipf s=1.2: bucket 0 is hot
HOT_LO, HOT_HI = 0.0, 12.5
# Strict upper bound: the predicate aligns exactly with bucket 0's
# half-open range, so the planner pushes the whole GROUP BY down into
# one roll-up probe at the hot root (``query.plan.pushdown``) — the
# read shape the balancer's diversion accelerates.
HOT_GROUP_SQL = (f"SELECT * FROM * WHERE {SPEC.attribute} < {HOT_HI:g} "
                 f"GROUP BY {SPEC.attribute}")
HOT_FLOOD_SQL = f"SELECT * FROM * WHERE {SPEC.attribute} < {HOT_HI:g}"


def canonical_rows(result):
    """Order-independent canonical form of a query's rows."""
    if result.entries and "count" in result.entries[0]:
        return sorted((e["group"], e["count"]) for e in result.entries)
    return sorted(e["address"] for e in result.entries)


def hot_root_ranking(plane):
    """Site nodes ranked by closeness to the hot bucket's topic key: the
    rendezvous root first, then the replica candidates the balancer's
    ``closest_neighbors`` placement would promote."""
    spec = plane.context.bucket_index.spec_for(SPEC.attribute)
    bucket = next(bk for bk in spec.buckets if bk.contains(HOT_LO))
    site = plane.nodes[0].site.name
    topic = site_tree(site, bucket.tree)
    key = topic_id(topic)
    ranked = sorted(plane.nodes,
                    key=lambda n: (n.node_id.distance(key), n.node_id.value))
    return topic, ranked


def run_arm(rebalance: bool):
    """One plane, the full flash-crowd workload; returns the summary."""
    plane = RBay(RBayConfig(
        seed=SEED, synthetic_sites=1, nodes_per_site=NODES,
        jitter=False, processing_delay_ms=2.0,
        maintenance_interval_ms=WINDOW_MS, sanitize=True,
        rebalance=RebalanceConfig(
            window_ms=WINDOW_MS,
            hot_threshold=12, hot_windows=2,
            cool_threshold=2, cool_windows=8,
            max_replicas=2, min_children=2,
        ) if rebalance else None,
    )).build()
    plane.sim.run()
    assign_skewed_values(plane, random.Random(SEED * 31 + 7), SPEC)
    plane.start_maintenance()
    plane.settle(2_000.0)

    # Customers spread across the site, never on the hot root or the
    # replica candidates (a home doubling as a replica would fold served
    # reads into its own receive count and muddy the load comparison).
    topic, ranked = hot_root_ranking(plane)
    root = ranked[0]
    homes = [n for n in plane.nodes if n not in ranked[:4]]
    customers = [plane.make_customer(f"cust-{i:02d}", n.site.name, home=n)
                 for i, n in enumerate(homes[:CUSTOMERS])]

    # Flash-crowd warmup: concurrent bursts of hot grouped-count reads.
    # With rebalancing on this drives the root's windows hot, triggers
    # the promotion, and lets every customer home learn the replica
    # hints from the first post-promotion reply it sees.
    for _ in range(WARMUP_ROUNDS):
        futures = [c.query_once(HOT_GROUP_SQL) for c in customers]
        for future in futures:
            future.result()
        plane.run(until=plane.sim.now + WINDOW_MS)

    # Full-coverage cross-check while replicas are active: a member
    # flood through the re-parented tree must reach exactly the same
    # address set as the flat tree (DFS climbs from replicas to the
    # root and back down, so coverage is unchanged).
    flood = customers[0].query_once(HOT_FLOOD_SQL).result()
    flood_rows = canonical_rows(flood)
    for node in plane.nodes:
        node.reservation.release(flood.query_id)
    plane.run(until=plane.sim.now + 2 * WINDOW_MS)

    # Measured phase: the steady flash crowd, one read per customer in
    # round-robin.  Counters are snapshotted (never reset: the sanitizer
    # and the rest of the plane keep running) and compared as deltas.
    recv_before = dict(plane.network.per_host_received)
    sent_before = plane.network.messages_sent
    latencies, rows_by_query = [], []
    for i in range(MEASURED_QUERIES):
        result = customers[i % len(customers)].query_once(HOT_GROUP_SQL).result()
        latencies.append(result.latency_ms)
        rows_by_query.append(canonical_rows(result))
    recv_delta = {
        address: plane.network.per_host_received[address]
                 - recv_before.get(address, 0)
        for address in plane.network.per_host_received
    }
    messages = plane.network.messages_sent - sent_before
    max_recv_address = max(recv_delta, key=lambda a: recv_delta[a])

    promotions = sum(n.scribe.rebalancer.promotions for n in plane.nodes
                     if n.scribe.rebalancer is not None)
    replicas = sorted(root.scribe.topics()[topic].replicas)

    # Quiesce and drain so the sanitizer's final quiescent pass runs.
    plane.run(until=plane.sim.now + 2_000.0)
    plane.stop_maintenance()
    plane.sim.run()
    report = plane.sanitizer.report

    summary = {
        "rebalance": rebalance,
        "nodes": len(plane.nodes),
        "hot_topic": topic,
        "hot_root": root.address,
        "replicas": replicas,
        "promotions": promotions,
        "latency_ms": latencies,
        "p50_ms": percentile(latencies, 50.0),
        "p99_ms": percentile(latencies, 99.0),
        "mean_ms": mean(latencies),
        "messages": messages,
        "max_received": recv_delta[max_recv_address],
        "max_received_address": max_recv_address,
        "root_received": recv_delta.get(root.address, 0),
        "sanitizer_ok": report.ok,
        "quiescent_checks": report.quiescent_checks,
    }
    return summary, flood_rows, rows_by_query, report


def run_experiment():
    on, flood_on, rows_on, report_on = run_arm(rebalance=True)
    off, flood_off, rows_off, report_off = run_arm(rebalance=False)
    return {"on": on, "off": off,
            "flood_on": flood_on, "flood_off": flood_off,
            "rows_on": rows_on, "rows_off": rows_off,
            "report_on": report_on, "report_off": report_off}


@pytest.mark.benchmark(group="rebalance-skew")
def test_rebalance_skew(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    on, off = results["on"], results["off"]

    print_banner(f"Ablation: hot-tree root replication on a "
                 f"{on['nodes']}-node site "
                 f"({MEASURED_QUERIES} hot grouped-count reads, "
                 f"zipf s={SPEC.zipf_s})")
    print(format_table(
        ["metric", "rebalance on", "rebalance off"],
        [["p50 read latency (ms)", f"{on['p50_ms']:.2f}", f"{off['p50_ms']:.2f}"],
         ["p99 read latency (ms)", f"{on['p99_ms']:.2f}", f"{off['p99_ms']:.2f}"],
         ["mean read latency (ms)", f"{on['mean_ms']:.2f}", f"{off['mean_ms']:.2f}"],
         ["max per-node received", on["max_received"], off["max_received"]],
         ["hot-root received", on["root_received"], off["root_received"]],
         ["messages (measured)", on["messages"], off["messages"]],
         ["promotions", on["promotions"], off["promotions"]]],
    ))

    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(
        {"config": {"seed": SEED, "nodes": NODES, "customers": CUSTOMERS,
                    "measured_queries": MEASURED_QUERIES,
                    "window_ms": WINDOW_MS, "zipf_s": SPEC.zipf_s,
                    "buckets": SPEC.buckets,
                    "hot_range": [HOT_LO, HOT_HI]},
         "arms": {"on": on, "off": off},
         "identical_rows": (results["rows_on"] == results["rows_off"]
                            and results["flood_on"] == results["flood_off"])},
        indent=2) + "\n")
    print(f"results written to {RESULTS_PATH}")

    # Byte-identical rows, rebalancing on or off: grouped counts from a
    # replica snapshot and the member flood through the split tree.
    for i, (r_on, r_off) in enumerate(zip(results["rows_on"],
                                          results["rows_off"])):
        assert json.dumps(r_on) == json.dumps(r_off), f"query {i}"
    assert json.dumps(results["flood_on"]) == json.dumps(results["flood_off"])
    # The balancer actually fired (and only in the rebalanced arm).
    assert on["promotions"] > 0
    assert off["promotions"] == 0
    # The point of the ablation: replication spreads the hot root's load
    # and shortens the read path.
    assert on["max_received"] < off["max_received"]
    assert on["p99_ms"] < off["p99_ms"]
    # The invariant sanitizer stayed clean in both arms.
    assert results["report_on"].ok, results["report_on"].format()
    assert results["report_off"].ok, results["report_off"].format()
    assert on["quiescent_checks"] > 0 and off["quiescent_checks"] > 0
