"""Tests for the synthetic monitoring infrastructure."""

import random

import pytest

from repro.core.monitor import AttributeChurn, SyntheticMonitor, UtilizationWalk
from repro.core.plane import RBay, RBayConfig


@pytest.fixture
def plane():
    plane = RBay(RBayConfig(seed=51, nodes_per_site=5, jitter=False)).build()
    plane.sim.run()
    return plane


class TestUtilizationWalk:
    def test_stays_in_bounds(self):
        walk = UtilizationWalk(random.Random(0), start=50.0, volatility=30.0)
        for _ in range(500):
            value = walk.step()
            assert 0.0 <= value <= 100.0

    def test_clamps_bad_start(self):
        assert UtilizationWalk(random.Random(0), start=150.0).value == 100.0
        assert UtilizationWalk(random.Random(0), start=-5.0).value == 0.0

    def test_mean_reversion_pulls_toward_mean(self):
        walk = UtilizationWalk(random.Random(0), start=100.0, volatility=0.0,
                               reversion=0.5, mean=50.0)
        walk.step()
        assert walk.value == 75.0

    def test_deterministic_given_seed(self):
        a = UtilizationWalk(random.Random(9), start=50.0)
        b = UtilizationWalk(random.Random(9), start=50.0)
        assert [a.step() for _ in range(20)] == [b.step() for _ in range(20)]


class TestSyntheticMonitor:
    def test_updates_attribute_values(self, plane):
        monitor = plane.monitor
        node = plane.nodes[0]
        monitor.track_utilization(node, start=50.0)
        before = node.attribute_value("CPU_utilization")
        monitor.start()
        plane.settle(5_000.0)
        monitor.stop()
        assert monitor.updates_pushed >= 4
        assert node.attribute_value("CPU_utilization") != before

    def test_track_many(self, plane):
        monitor = plane.monitor
        monitor.track_many(plane.nodes[:10])
        monitor.tick()
        assert monitor.updates_pushed == 10

    def test_dead_nodes_skipped(self, plane):
        monitor = plane.monitor
        node = plane.nodes[0]
        monitor.track_utilization(node)
        node.fail()
        monitor.tick()
        assert monitor.updates_pushed == 0

    def test_stop_is_idempotent(self, plane):
        monitor = plane.monitor
        monitor.start()
        monitor.stop()
        monitor.stop()


class TestAttributeChurn:
    def test_flips_attributes(self, plane):
        nodes = plane.nodes[:10]
        churn = AttributeChurn(
            plane.sim, random.Random(0), nodes, "GPU",
            value_factory=lambda rng: True, rate=0.5,
        )
        churn.tick()
        churn.tick()
        assert churn.flips > 0
        present = sum(1 for n in nodes if n.has_attribute("GPU"))
        assert 0 < present <= 10 or churn.flips >= 10

    def test_periodic_operation(self, plane):
        nodes = plane.nodes[:8]
        churn = AttributeChurn(
            plane.sim, random.Random(1), nodes, "Disk",
            value_factory=lambda rng: rng.random(), rate=0.25,
            interval_ms=500.0,
        )
        churn.start()
        plane.settle(3_000.0)
        churn.stop()
        assert churn.flips >= 6

    def test_churned_membership_tracks_through_maintenance(self, plane):
        """Resource churn propagates to tree membership on the next tick —
        the paper's future-work churn experiment in miniature."""
        from repro.core.naming import site_tree
        from repro.core.node import SubscriptionSpec

        site = "Virginia"
        nodes = plane.site_nodes(site)
        topic = site_tree(site, "GPU")
        for node in nodes:
            node.subscribe(SubscriptionSpec(
                topic=topic, attribute="GPU", scope="site",
                default_predicate=lambda v: v is True,
            ))
        plane.sim.run()
        churn = AttributeChurn(plane.sim, random.Random(2), nodes, "GPU",
                               value_factory=lambda rng: True, rate=0.6)
        churn.tick()
        for node in nodes:
            node.maintenance_tick()
        plane.sim.run()
        expected = sum(1 for n in nodes if n.attribute_value("GPU") is True)
        assert plane.tree_size(topic, via=nodes[0]) == expected
