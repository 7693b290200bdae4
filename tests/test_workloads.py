"""Tests for the workload generators."""

import random

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.workloads.ec2 import (
    EC2_INSTANCE_TYPES,
    INSTANCE_SPECS,
    gaussian_tree_assignment,
    gaussian_tree_weights,
    instance_attributes,
)
from repro.workloads.generator import FederationWorkload, WorkloadSpec
from repro.workloads.queries import composite_query


class TestEC2Catalog:
    def test_twenty_three_instance_types(self):
        assert len(EC2_INSTANCE_TYPES) == 23
        assert len(INSTANCE_SPECS) == 23

    def test_paper_listed_types_present(self):
        for expected in ("t2.micro", "c3.8xlarge", "g2.2xlarge", "hs1.8xlarge"):
            assert expected in EC2_INSTANCE_TYPES

    def test_weights_sum_to_one_and_peak_centrally(self):
        weights = gaussian_tree_weights()
        assert sum(weights) == pytest.approx(1.0)
        center = len(weights) // 2
        assert weights[center] > weights[0]
        assert weights[center] > weights[-1]

    def test_assignment_follows_gaussian_shape(self):
        rng = random.Random(0)
        assignment = gaussian_tree_assignment(rng, 5_000)
        counts = {t: assignment.count(t) for t in EC2_INSTANCE_TYPES}
        assert counts["c3.8xlarge"] > counts["t2.micro"]
        assert counts["c3.8xlarge"] > counts["hs1.8xlarge"]

    def test_instance_attributes(self):
        attrs = instance_attributes("g2.2xlarge")
        assert attrs["GPU"] is True
        assert attrs["vcpu"] == 8.0
        assert attrs["instance_type"] == "g2.2xlarge"
        assert attrs["family"] == "g2"


class TestCompositeQuery:
    def test_query_parses_and_targets_type(self):
        from repro.query.sql import parse_query

        rng = random.Random(0)
        sql = composite_query(rng, ["Virginia"], k=2, instance_type="c3.xlarge")
        query = parse_query(sql)
        assert query.k == 2
        assert query.sites == ["Virginia"]
        assert query.predicates[0].value == "c3.xlarge"
        assert len(query.predicates) == 3  # type + two spec floors

    def test_spec_floors_are_satisfiable(self):
        rng = random.Random(0)
        for itype in EC2_INSTANCE_TYPES:
            sql = composite_query(rng, None, instance_type=itype)
            spec = INSTANCE_SPECS[itype]
            from repro.query.sql import parse_query

            query = parse_query(sql)
            by_attr = {p.attribute: p for p in query.predicates}
            assert by_attr["vcpu"].matches(float(spec["vcpu"]))
            assert by_attr["mem_gb"].matches(float(spec["mem_gb"]))


class TestFederationWorkload:
    @pytest.fixture(scope="class")
    def dressed(self):
        plane = RBay(RBayConfig(seed=41, nodes_per_site=15, jitter=False)).build()
        workload = FederationWorkload(plane, WorkloadSpec(
            password="pw", filler_attributes=5)).apply()
        plane.sim.run()
        return plane, workload

    def test_every_node_assigned_a_type(self, dressed):
        plane, workload = dressed
        assert len(workload.instance_of) == len(plane.nodes)

    def test_nodes_carry_standard_attributes(self, dressed):
        plane, workload = dressed
        for node in plane.nodes[:10]:
            assert node.has_attribute("instance_type")
            assert node.has_attribute("vcpu")
            assert node.has_attribute("CPU_utilization")
            assert node.has_attribute("attr_0000")

    def test_gate_policy_installed(self, dressed):
        plane, workload = dressed
        node = plane.nodes[0]
        assert node.authorize("x", {"password": "pw"}) is not None
        assert node.authorize("x", {"password": "no"}) is None

    def test_instance_trees_have_correct_sizes(self, dressed):
        plane, workload = dressed
        from repro.core.naming import instance_tree

        site = "Virginia"
        population = workload.site_instance_population(site)
        node = plane.site_nodes(site)[0]
        for itype, expected in population.items():
            if expected == 0:
                continue
            topic = instance_tree(site, itype)
            assert plane.tree_size(topic, via=node) == expected

    def test_utilization_tree_membership_matches_threshold(self, dressed):
        plane, workload = dressed
        from repro.core.naming import site_tree

        site = "Tokyo"
        expected = sum(
            1 for n in plane.site_nodes(site)
            if n.attribute_value("CPU_utilization") < 10.0
        )
        node = plane.site_nodes(site)[0]
        topic = site_tree(site, "CPU_utilization<10")
        assert plane.tree_size(topic, via=node) == expected

    def test_population_accounting_consistent(self, dressed):
        plane, workload = dressed
        total = sum(workload.instance_population().values())
        assert total == len(plane.nodes)
        per_site = sum(
            sum(workload.site_instance_population(s.name).values())
            for s in plane.registry
        )
        assert per_site == total


class TestMultiThresholdWorkload:
    @pytest.fixture(scope="class")
    def dressed(self):
        plane = RBay(RBayConfig(seed=42, nodes_per_site=15, jitter=False)).build()
        workload = FederationWorkload(plane, WorkloadSpec(
            password="pw",
            utilization_thresholds=(10.0, 25.0, 50.0),
        )).apply()
        plane.sim.run()
        return plane, workload

    def test_every_threshold_tree_populated_correctly(self, dressed):
        plane, workload = dressed
        from repro.core.naming import predicate_tree_name, site_tree

        site = "Virginia"
        nodes = plane.site_nodes(site)
        for threshold in (10.0, 25.0, 50.0):
            expected = sum(
                1 for n in nodes if n.attribute_value("CPU_utilization") < threshold
            )
            topic = site_tree(site, predicate_tree_name(
                "CPU_utilization", "<", threshold))
            assert plane.tree_size(topic, via=nodes[0]) == expected

    def test_trees_are_nested_by_construction(self, dressed):
        """size(<10) <= size(<25) <= size(<50): thresholds nest."""
        plane, workload = dressed
        from repro.core.naming import predicate_tree_name, site_tree

        site = "Tokyo"
        probe = plane.site_nodes(site)[0]
        sizes = [
            plane.tree_size(site_tree(site, predicate_tree_name(
                "CPU_utilization", "<", t)), via=probe)
            for t in (10.0, 25.0, 50.0)
        ]
        assert sizes[0] <= sizes[1] <= sizes[2]

    def test_query_can_target_any_threshold(self, dressed):
        plane, workload = dressed
        customer = plane.make_customer("multi", "Virginia")
        result = customer.query_once(
            "SELECT 1 FROM * WHERE CPU_utilization < 50%;",
            payload={"password": "pw"},
        ).result()
        assert result.satisfied
        node = plane.network.host(result.entries[0]["address"])
        assert node.attribute_value("CPU_utilization") < 50.0
