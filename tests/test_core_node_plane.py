"""Integration tests for RBayNode and the RBay plane facade."""

import pytest

from repro.core.naming import instance_tree, site_tree
from repro.core.node import GATE_ATTRIBUTE, SubscriptionSpec
from repro.core.plane import RBay, RBayConfig
from repro.core.policies import password_policy
from repro.query.options import QueryOptions
from repro.query.predicates import Predicate
from repro.workloads.generator import FederationWorkload, WorkloadSpec


class TestPlaneConstruction:
    def test_builds_eight_ec2_sites_by_default(self, small_plane):
        assert len(small_plane.registry) == 8
        assert len(small_plane.nodes) == 80

    def test_every_node_has_apps(self, small_plane):
        for node in small_plane.nodes:
            assert "scribe" in node.apps and "query" in node.apps and "join" in node.apps

    def test_gateways_cover_every_site(self, small_plane):
        for site in small_plane.registry:
            assert site.name in small_plane.context.gateways

    def test_gateway_lives_in_its_site(self, small_plane):
        for site_name, address in small_plane.context.gateways.items():
            host = small_plane.network.host(address)
            assert host.site.name == site_name

    def test_site_nodes_filter(self, small_plane):
        tokyo = small_plane.site_nodes("Tokyo")
        assert len(tokyo) == 10
        assert all(n.site.name == "Tokyo" for n in tokyo)

    def test_synthetic_site_mode(self):
        plane = RBay(RBayConfig(seed=1, nodes_per_site=4, synthetic_sites=5,
                                jitter=False)).build()
        assert len(plane.registry) == 5
        assert len(plane.nodes) == 20

    def test_double_build_rejected(self, small_plane):
        with pytest.raises(RuntimeError):
            small_plane.build()

    def test_deterministic_construction(self):
        a = RBay(RBayConfig(seed=5, nodes_per_site=5, jitter=False)).build()
        b = RBay(RBayConfig(seed=5, nodes_per_site=5, jitter=False)).build()
        assert [n.node_id.value for n in a.nodes] == [n.node_id.value for n in b.nodes]

    def test_dynamic_add_node(self):
        plane = RBay(RBayConfig(seed=2, nodes_per_site=5, jitter=False)).build()
        newcomer = plane.add_node(plane.registry[0], join_via=plane.nodes[0])
        plane.sim.run()
        assert newcomer in plane.nodes
        assert "scribe" in newcomer.apps


class TestTreeSize:
    def test_site_tree_size_through_a_stateless_node(self):
        """Regression: a node holding no state for a site tree used to
        probe it with global scope, reach a rendezvous holding nothing and
        read a populated tree as 0 — through ``via`` and by default."""
        plane = RBay(RBayConfig(seed=3, synthetic_sites=4, nodes_per_site=8,
                                jitter=False)).build()
        workload = FederationWorkload(plane, WorkloadSpec())
        workload.apply()
        plane.sim.run()
        site = "Site001"
        checked = 0
        for itype, expected in sorted(
                workload.site_instance_population(site).items()):
            topic = instance_tree(site, itype)
            stateless = [n for n in plane.site_nodes(site)
                         if topic not in n.scribe.topics()]
            if not expected or not stateless:
                continue
            assert plane.tree_size(topic, via=stateless[0]) == expected, itype
            assert plane.tree_size(topic) == expected, itype
            checked += 1
        assert checked >= 5


class TestNodeAttributes:
    @pytest.fixture
    def plane(self):
        plane = RBay(RBayConfig(seed=3, nodes_per_site=6, jitter=False)).build()
        plane.sim.run()
        return plane

    def test_define_and_read(self, plane):
        node = plane.nodes[0]
        node.define_attribute("GPU", True)
        assert node.attribute_value("GPU") is True
        assert node.has_attribute("GPU")

    def test_update_via_monitor_path(self, plane):
        node = plane.nodes[0]
        node.define_attribute("util", 10.0)
        node.update_attribute("util", 90.0)
        assert node.attribute_value("util") == 90.0

    def test_remove(self, plane):
        node = plane.nodes[0]
        node.define_attribute("X", 1)
        assert node.remove_attribute("X")
        assert not node.has_attribute("X")

    def test_check_predicates(self, plane):
        node = plane.nodes[0]
        node.define_attribute("cpu", 4.0)
        node.define_attribute("os", "linux")
        assert node.check_predicates([Predicate("cpu", ">=", 2), Predicate("os", "=", "linux")])
        assert not node.check_predicates([Predicate("cpu", ">=", 8)])
        assert not node.check_predicates([Predicate("missing", "=", 1)])

    def test_authorize_open_by_default(self, plane):
        node = plane.nodes[0]
        assert node.authorize("joe", None) == node.node_id.value

    def test_authorize_with_gate(self, plane):
        node = plane.nodes[0]
        node.define_attribute(GATE_ATTRIBUTE, 0, password_policy(7, "pw"))
        assert node.authorize("joe", {"password": "pw"}) == 7
        assert node.authorize("joe", {"password": "xx"}) is None

    def test_authorize_injects_trusted_time(self, plane):
        node = plane.nodes[0]
        source = "function onGet(c, p) return p.now end"
        node.define_attribute(GATE_ATTRIBUTE, 0, source)
        assert node.authorize("joe", {}) == pytest.approx(plane.sim.now)


class TestSubscriptionLifecycle:
    @pytest.fixture
    def plane(self):
        plane = RBay(RBayConfig(seed=4, nodes_per_site=8, jitter=False,
                                maintenance_interval_ms=500.0)).build()
        plane.sim.run()
        return plane

    def test_predicate_membership_follows_value(self, plane):
        topic = site_tree("Virginia", "util<10")
        nodes = plane.site_nodes("Virginia")[:4]
        for node in nodes:
            node.define_attribute("util", 5.0)
            node.subscribe(SubscriptionSpec(topic=topic, attribute="util", scope="site",
                                            default_predicate=lambda v: v < 10))
        plane.sim.run()
        assert plane.tree_size(topic, via=nodes[0]) == 4
        # Overload two nodes; next maintenance tick should drop them.
        nodes[0].update_attribute("util", 95.0)
        nodes[1].update_attribute("util", 95.0)
        for node in nodes:
            node.maintenance_tick()
        plane.sim.run()
        assert plane.tree_size(topic, via=nodes[2]) == 2

    def test_aa_handler_membership(self, plane):
        from repro.core.policies import utilization_subscription

        topic = site_tree("Tokyo", "CPU_utilization<10%")
        nodes = plane.site_nodes("Tokyo")[:3]
        for node in nodes:
            node.define_attribute("CPU_utilization", 5.0, utilization_subscription(10.0))
            node.subscribe(SubscriptionSpec(topic=topic, attribute="CPU_utilization",
                                            scope="site"))
        plane.sim.run()
        assert plane.tree_size(topic, via=nodes[0]) == 3
        nodes[0].update_attribute("CPU_utilization", 80.0)
        for node in nodes:
            node.maintenance_tick()
        plane.sim.run()
        assert plane.tree_size(topic, via=nodes[1]) == 2
        # Paper's example: the node re-subscribes when load drops again.
        nodes[0].update_attribute("CPU_utilization", 3.0)
        for node in nodes:
            node.maintenance_tick()
        plane.sim.run()
        assert plane.tree_size(topic, via=nodes[1]) == 3

    def test_bucket_trees_ignore_the_threshold_handler(self):
        """Regression: with the default dressing ``CPU_utilization`` carries
        the ``utilization_subscription`` handlers, which used to answer for
        the attribute's *bucket* trees too — every node under 10 % joined
        all buckets and no other node joined any.  A bucket tree's
        membership is its interval, whatever policy the attribute carries
        for its threshold trees."""
        plane = RBay(RBayConfig(seed=11, synthetic_sites=2, nodes_per_site=6,
                                jitter=False)).build()
        FederationWorkload(plane, WorkloadSpec()).apply()  # active_subscriptions on
        spec = plane.register_buckets("CPU_utilization", 0.0, 100.0, 4)
        plane.sim.run()

        truth = {}
        for node in plane.nodes:
            value = node.attribute_value("CPU_utilization")
            bucket = spec.bucket_of(value)
            truth[bucket.label] = truth.get(bucket.label, 0) + 1
            for candidate in spec.buckets:
                topic = site_tree(node.site.name, candidate.tree)
                assert node.scribe.is_member(topic) == (candidate == bucket)
        result = plane.query("SELECT * FROM * GROUP BY CPU_utilization;",
                             options=QueryOptions(origin="Site000",
                                                  payload={"password": "rbay"}))
        assert {row["group"]: row["count"] for row in result.entries} == truth
        # The threshold tree is still the handler's: only nodes under 10 %.
        low = site_tree("Site000", "CPU_utilization<10")
        assert [n.scribe.is_member(low) for n in plane.site_nodes("Site000")] == [
            n.attribute_value("CPU_utilization") < 10.0
            for n in plane.site_nodes("Site000")]

    def test_unsubscribe_leaves_tree(self, plane):
        topic = site_tree("Oregon", "static")
        nodes = plane.site_nodes("Oregon")[:3]
        for node in nodes:
            node.subscribe(SubscriptionSpec(topic=topic, scope="site"))
        plane.sim.run()
        nodes[0].unsubscribe(topic)
        plane.sim.run()
        assert plane.tree_size(topic, via=nodes[1]) == 2

    def test_start_stop_maintenance(self, plane):
        plane.start_maintenance()
        plane.settle(2_000.0)
        plane.stop_maintenance()
        before = plane.sim.events_executed
        plane.settle(5_000.0)
        # No periodic storm after stop (allow a little residual work).
        assert plane.sim.events_executed - before < len(plane.nodes)

    def test_attribute_on_timer_invoked_by_maintenance(self, plane):
        node = plane.nodes[0]
        source = """
        AA = {Ticks = 0}
        function onTimer() AA.Ticks = AA.Ticks + 1 end
        function onGet(c, p) return AA.Ticks end
        """
        node.define_attribute("ticker", 0, source)
        node.maintenance_tick()
        node.maintenance_tick()
        assert node.aa.on_get("ticker", 0) == 2


class TestSyntheticFederationScale:
    def test_hundred_site_federation(self):
        """A 100-site synthetic federation builds, routes, and answers."""
        plane = RBay(RBayConfig(seed=3000, synthetic_sites=100, nodes_per_site=4,
                                jitter=False)).build()
        plane.sim.run()
        assert len(plane.registry) == 100
        assert len(plane.nodes) == 400
        # Post a resource at a far site and find it from site 0.
        target_site = plane.registry[50]
        admin = plane.admins[target_site.name]
        node = plane.site_nodes(target_site.name)[0]
        admin.post_resource(node, "telescope", True)
        plane.sim.run()
        customer = plane.make_customer("astro", plane.registry[0].name)
        result = customer.query_once(
            f"SELECT 1 FROM {target_site.name} WHERE telescope = true;").result()
        assert result.satisfied
        # Ring distance 50 at 15 ms/hop: latency reflects the distance.
        assert result.latency_ms > 100.0

    def test_full_fanout_over_hundred_sites(self):
        plane = RBay(RBayConfig(seed=3001, synthetic_sites=100, nodes_per_site=3,
                                jitter=False)).build()
        plane.sim.run()
        for site in list(plane.registry)[:10]:
            admin = plane.admins[site.name]
            admin.post_resource(plane.site_nodes(site.name)[0], "GPU", True)
        plane.sim.run()
        customer = plane.make_customer("wide", plane.registry[0].name)
        result = customer.query_once("SELECT 10 FROM * WHERE GPU = true;").result()
        assert result.satisfied
        assert len(result.sites_queried) == 100
