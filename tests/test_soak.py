"""Soak test: hours of simulated operation under monitor + churn + queries.

The long-run invariants a production deployment would watch:

* no reservation leaks (everything committed is held by a live lease);
* tree sizes equal ground-truth membership after convergence;
* per-topic state stays bounded (no unbounded growth in children tables);
* the plane keeps answering queries correctly throughout.
"""

import pytest

from repro.core.monitor import AttributeChurn
from repro.core.naming import instance_tree, site_tree
from repro.core.plane import RBay, RBayConfig
from repro.workloads.generator import FederationWorkload, WorkloadSpec
from repro.workloads.queries import QueryWorkload

SIM_HOURS = 0.5  # simulated half-hour of continuous operation


@pytest.fixture(scope="module")
def soaked():
    plane = RBay(RBayConfig(seed=2050, nodes_per_site=12, jitter=True,
                            maintenance_interval_ms=2_000.0,
                            reservation_hold_ms=1_000.0,
                            lease_ms=10_000.0)).build()
    workload = FederationWorkload(plane, WorkloadSpec(password="pw")).apply()
    plane.sim.run()

    # Continuous utilization churn + GPU attribute churn + maintenance.
    plane.monitor.track_many(plane.nodes)
    plane.monitor.start()
    churn = AttributeChurn(plane.sim, plane.streams.stream("soak-churn"),
                           plane.site_nodes("Virginia"), "GPU",
                           value_factory=lambda rng: True,
                           rate=0.1, interval_ms=5_000.0)
    admin = plane.admin("Virginia")
    for node in plane.site_nodes("Virginia"):
        admin.post_resource(node, "GPU", True)
    churn.start()
    plane.start_maintenance()

    # A steady trickle of queries while the system runs.
    generator = QueryWorkload(plane.streams.stream("soak-queries"),
                              [s.name for s in plane.registry], k=1,
                              password="pw")
    customer = plane.make_customer("soaker", "Tokyo")
    outcomes = []
    total_ms = SIM_HOURS * 3_600_000.0
    step_ms = total_ms / 60.0
    for i in range(60):
        plane.settle(step_ms)
        sql, payload = generator.make("Tokyo", 1 + i % 8)
        result = customer.query_once(sql, payload=payload).result()
        outcomes.append(result)
        if result.entries:
            customer.release_all(result)

    churn.stop()
    plane.monitor.stop()
    plane.settle(30_000.0)  # converge with maintenance still running
    plane.stop_maintenance()
    plane.sim.run()
    return plane, workload, outcomes


def test_queries_kept_flowing(soaked):
    plane, workload, outcomes = soaked
    assert len(outcomes) == 60
    satisfied = sum(1 for o in outcomes if o.satisfied)
    # Instance types exist somewhere for most draws; the system must keep
    # answering (the exact rate depends on the Gaussian population).
    assert satisfied >= 30


def test_no_reservation_leaks(soaked):
    plane, workload, outcomes = soaked
    plane.settle(20_000.0)  # exceed reservation hold + lease windows
    for node in plane.nodes:
        if node.alive:
            assert node.reservation.is_free(), node


def test_tree_sizes_match_ground_truth(soaked):
    plane, workload, _ = soaked
    # Churned GPU tree in Virginia:
    truth = sum(1 for n in plane.site_nodes("Virginia")
                if n.alive and n.attribute_value("GPU") is True)
    node = plane.site_nodes("Virginia")[0]
    assert plane.tree_size(site_tree("Virginia", "GPU"),
                           via=node) == truth


def test_instance_trees_still_consistent(soaked):
    plane, workload, _ = soaked
    for site_name in ("Tokyo", "Ireland"):
        population = workload.site_instance_population(site_name)
        probe = plane.site_nodes(site_name)[0]
        for itype, expected in population.items():
            if expected == 0:
                continue
            size = plane.tree_size(instance_tree(site_name, itype),
                                   via=probe)
            assert size == expected, (site_name, itype)


def test_topic_state_is_bounded(soaked):
    plane, workload, _ = soaked
    # Nobody should accumulate more children than the population of its
    # site (trees are site-scoped) nor hold topics with dead parents.
    for node in plane.nodes:
        if not node.alive:
            continue
        site_size = len(plane.site_nodes(node.site.name))
        for state in node.scribe.topics().values():
            assert len(state.children) <= site_size
            if state.parent is not None:
                assert plane.network.has_host(state.parent)


def test_aa_error_rate_is_zero(soaked):
    """Policy handlers never crashed during the soak."""
    plane, workload, _ = soaked
    total_errors = sum(n.aa.error_count() for n in plane.nodes if n.alive)
    assert total_errors == 0
