"""Figure 11 (a/b/c): tree-construction vs. command-delivery latency.

Paper setup (§IV-D): build the 23 admin-specified instance trees per site
(onSubscribe) and deliver admin commands along them (onDeliver), in the
US, EU, Asia, and SA.  Findings: "latencies of tree construction stabilize
around 50 ms for all trees and all sites" (joining only needs contact with
nearby overlay neighbors), while "latencies of command delivery fluctuate;
they are 100 ms for US and EU sites, but 200~500 ms for the Asia and SA
sites" — delivery cost is linear in tree depth (1–3 hops) and suffers on
unstable networks.
"""

import pytest

from benchmarks.conftest import build_dressed_plane, print_banner
from repro.obs.metrics import LabeledHistogram, format_table, mean, percentile
from repro.workloads.ec2 import EC2_INSTANCE_TYPES

#: One representative site per region reported in Figure 11.
REPRESENTATIVES = (("Virginia", "US"), ("Ireland", "EU"),
                   ("Singapore", "Asia"), ("SaoPaulo", "SA"))


def measure_tree_construction(plane, workload, recorder):
    """Join latency: a fresh on-demand tree per site, per instance type.

    Nodes re-join admin-specified trees (named after the instance types)
    and we record the time until the JOIN is wired into the tree (the
    node's parent link is established).
    """
    sim = plane.sim
    for site_name, region in REPRESENTATIVES:
        nodes = plane.site_nodes(site_name)
        for itype in EC2_INSTANCE_TYPES:
            members = [n for n in nodes
                       if workload.instance_of.get(n.address) == itype]
            # Admin-specified on-demand trees ride the *global* overlay in
            # the paper's §IV-D experiment (isolation is orthogonal).
            topic = f"{site_name}/ondemand-{itype}"
            for i, node in enumerate(members):
                started = sim.now
                node.scribe.join(node, topic, scope="global")
                state = node.scribe.topic_state(topic)
                sim.run_until(lambda: state.parent is not None or state.is_root)
                # The very first join per tree routes all the way to the
                # rendezvous root (tree establishment); steady-state joins
                # attach at the nearest tree node, which is what the
                # paper's per-tree construction latency reports.
                if i > 0:
                    recorder.observe(sim.now - started, step="construct",
                                     region=region)
            sim.run()  # settle aggregates before the next tree


def measure_command_delivery(plane, workload, recorder):
    """Multicast an admin command down each instance tree; latency is the
    time until the farthest member has executed onDeliver."""
    sim = plane.sim
    for site_name, region in REPRESENTATIVES:
        nodes = plane.site_nodes(site_name)
        delivered = {}

        def handler(node, topic, body, delivered=delivered):
            delivered[node.address] = sim.now

        for node in nodes:
            node.scribe.multicast_handler = handler
        for itype in EC2_INSTANCE_TYPES:
            members = [n for n in nodes
                       if workload.instance_of.get(n.address) == itype]
            if not members:
                continue
            topic = f"{site_name}/ondemand-{itype}"
            delivered.clear()
            started = sim.now
            members[0].scribe.multicast(members[0], topic, {"cmd": "set-expiry"})
            sim.run()
            if delivered:
                recorder.observe(max(delivered.values()) - started,
                                 step="deliver", region=region)


def run_experiment():
    # Jittered latencies matter here: Fig 11's Asia/SA fluctuation comes
    # from unstable networks, which our model expresses as high jitter CV.
    plane, workload = build_dressed_plane(seed=77, nodes_per_site=30, jitter=True)
    recorder = LabeledHistogram("fig11.latency_ms")
    measure_tree_construction(plane, workload, recorder)
    measure_command_delivery(plane, workload, recorder)
    return recorder


@pytest.mark.benchmark(group="fig11")
def test_fig11_tree_construction_vs_delivery(benchmark):
    recorder = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    print_banner("Figure 11: per-tree latency (ms), construction (onSubscribe) "
                 "vs. command delivery (onDeliver)")
    rows = []
    for _, region in REPRESENTATIVES:
        construct = recorder.samples(step="construct", region=region)
        deliver = recorder.samples(step="deliver", region=region)
        rows.append([
            region,
            f"{mean(construct):5.1f}",
            f"{percentile(construct, 90):5.1f}",
            f"{mean(deliver):5.1f}",
            f"{percentile(deliver, 90):5.1f}",
        ])
    print(format_table(
        ["region", "construct mean", "construct p90", "deliver mean", "deliver p90"],
        rows,
    ))

    construct_means = {region: mean(recorder.samples(step="construct", region=region))
                       for _, region in REPRESENTATIVES}
    deliver_means = {region: mean(recorder.samples(step="deliver", region=region))
                     for _, region in REPRESENTATIVES}

    # Shape 1: construction is fast (paper: ~50 ms for all trees/sites).
    # Our simulated joins are bimodal — sub-millisecond when a tree node
    # exists in-site, one cross-site hop otherwise — because the testbed's
    # flat ~50 ms floor was JVM processing time, which the simulator does
    # not model.  The reproducible claim is the *level*: well under the
    # command-delivery cost and below ~100 ms in every region.
    for region, value in construct_means.items():
        assert value < 100.0, region

    # Shape 2: command delivery is the slower operation in every region —
    # cost "linear with the depth of the tree" (1-3 cross-site hops).
    for region in deliver_means:
        assert deliver_means[region] > construct_means[region]

    # Shape 3: delivery lands in the paper's 100-500 ms band and
    # fluctuates heavily per tree ("the latencies of command delivery
    # fluctuate") — the p90 sits well above the mean in every region.
    for region, value in deliver_means.items():
        assert 50.0 < value < 500.0, region
    for _, region in REPRESENTATIVES:
        p90 = percentile(recorder.samples(step="deliver", region=region), 90)
        assert p90 > deliver_means[region] * 1.2, region
    # The unstable regions' tails reach at least the stable regions' level
    # (root placement is uniform, so the comparison is necessarily loose).
    stable_floor = min(
        percentile(recorder.samples(step="deliver", region="US"), 90),
        percentile(recorder.samples(step="deliver", region="EU"), 90))
    unstable_ceiling = max(
        percentile(recorder.samples(step="deliver", region="Asia"), 90),
        percentile(recorder.samples(step="deliver", region="SA"), 90))
    assert unstable_ceiling >= stable_floor * 0.8
