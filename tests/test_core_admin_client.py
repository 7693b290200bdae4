"""Integration tests for SiteAdmin and Customer behaviour."""

import pytest

from repro.core.naming import site_tree
from repro.core.plane import RBay, RBayConfig
from repro.core.policies import rental_price_policy


@pytest.fixture
def plane():
    plane = RBay(RBayConfig(seed=31, nodes_per_site=10, jitter=False)).build()
    plane.sim.run()
    return plane


class TestAdminPosting:
    def test_post_resource_makes_node_discoverable(self, plane):
        admin = plane.admin("Virginia")
        node = plane.site_nodes("Virginia")[0]
        admin.post_resource(node, "Matlab", "9.0")
        plane.sim.run()
        customer = plane.make_customer("joe", "Virginia")
        result = customer.query_once(
            "SELECT 1 FROM Virginia WHERE Matlab = '9.0';").result()
        assert result.satisfied
        assert result.entries[0]["address"] == node.address

    def test_hide_resource_withdraws_it(self, plane):
        admin = plane.admin("Oregon")
        node = plane.site_nodes("Oregon")[0]
        admin.post_resource(node, "Matlab", "9.0")
        plane.sim.run()
        admin.hide_resource(node, "Matlab", value="9.0")
        plane.sim.run()
        customer = plane.make_customer("joe", "Oregon")
        result = customer.query_once(
            "SELECT 1 FROM Oregon WHERE Matlab = '9.0';").result()
        assert not result.entries

    def test_admin_cannot_touch_foreign_site(self, plane):
        admin = plane.admin("Virginia")
        foreign = plane.site_nodes("Tokyo")[0]
        with pytest.raises(PermissionError):
            admin.post_resource(foreign, "Matlab", "9.0")

    def test_membership_predicate_respected(self, plane):
        admin = plane.admin("Ireland")
        node = plane.site_nodes("Ireland")[0]
        admin.post_resource(node, "licenses", 0,
                            tree="licenses-available",
                            membership=lambda v: (v or 0) > 0)
        plane.sim.run()
        topic = site_tree("Ireland", "licenses-available")
        assert plane.tree_size(topic, via=node) == 0
        node.update_attribute("licenses", 3)
        node.maintenance_tick()
        plane.sim.run()
        assert plane.tree_size(topic, via=node) == 1


class TestAdminCommands:
    def test_broadcast_triggers_on_deliver(self, plane):
        admin = plane.admin("Virginia")
        nodes = plane.site_nodes("Virginia")[:4]
        for node in nodes:
            node.define_attribute("rent", 0, rental_price_policy(node.node_id.value, 10.0))
            admin.post_resource(node, "for_rent", True, tree="for_rent")
        plane.sim.run()
        admin.broadcast_command(nodes[0], "for_rent", "rent", {"new_price": 4.0})
        plane.sim.run()
        for node in nodes:
            attribute = node.aa.get("rent")
            assert attribute.aa_table.get("Price") == 4.0

    def test_price_change_affects_subsequent_queries(self, plane):
        admin = plane.admin("Tokyo")
        node = plane.site_nodes("Tokyo")[0]
        admin.set_gate_policy(node, rental_price_policy(node.node_id.value, 100.0))
        admin.post_resource(node, "for_rent", True, tree="for_rent")
        plane.sim.run()
        customer = plane.make_customer("joe", "Tokyo")
        sql = "SELECT 1 FROM Tokyo WHERE for_rent = true;"
        result = customer.query_once(sql, payload={"budget": 50.0}).result()
        assert not result.entries  # too expensive
        admin.broadcast_command(node, "for_rent", "access", {"new_price": 30.0})
        plane.sim.run()
        result = customer.query_once(sql, payload={"budget": 50.0}).result()
        assert result.satisfied


class TestCustomer:
    def test_release_all_frees_leases(self, plane):
        admin = plane.admin("Sydney")
        node = plane.site_nodes("Sydney")[0]
        admin.post_resource(node, "GPU", True)
        plane.sim.run()
        customer = plane.make_customer("joe", "Sydney")
        result = customer.query_once("SELECT 1 FROM Sydney WHERE GPU = true;").result()
        assert result.satisfied
        plane.sim.run()
        assert node.reservation.committed
        customer.release_all(result)
        plane.sim.run()
        assert node.reservation.is_free()

    def test_customer_home_is_in_requested_site(self, plane):
        customer = plane.make_customer("joe", "Singapore")
        assert customer.home.site.name == "Singapore"

    def test_unknown_site_rejected(self, plane):
        with pytest.raises(KeyError):
            plane.make_customer("joe", "Mars")

    def test_request_resolves_even_when_nothing_matches(self, plane):
        customer = plane.make_customer("joe", "Virginia", max_attempts=2)
        outcome = customer.request(
            "SELECT 1 FROM Virginia WHERE nothing = 'ever';").result()
        assert outcome.gave_up and not outcome.satisfied
        assert outcome.attempts == 2
