"""Tests for administrative isolation (§III-E): the overlay's boundary-router
election, its site-root oracle, and site confinement of site trees."""

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.pastry.nodeid import NodeId


@pytest.fixture
def plane():
    plane = RBay(RBayConfig(seed=111, nodes_per_site=8, jitter=False)).build()
    plane.sim.run()
    return plane


def addresses(gateways):
    return {site: [ref.address for ref in refs] for site, refs in gateways.items()}


class TestGatewayElection:
    def test_every_site_gets_gateways(self, plane):
        gateways = plane.overlay.gateways
        assert set(gateways) == {s.index for s in plane.registry}
        for refs in gateways.values():
            assert len(refs) == 2

    def test_gateways_are_lowest_ids_in_site(self, plane):
        for site in plane.registry:
            members = sorted(plane.site_nodes(site.name),
                             key=lambda n: n.node_id.value)
            refs = plane.overlay.gateways[site.index]
            assert [ref.address for ref in refs] == [
                members[0].address, members[1].address]
            assert plane.context.gateways[site.name] == members[0].address

    def test_election_is_deterministic(self, plane):
        first = addresses(plane.overlay.gateways)
        plane.overlay.elect_gateways()
        assert addresses(plane.overlay.gateways) == first

    def test_dead_nodes_not_elected(self, plane):
        site = plane.registry[0]
        members = sorted(plane.site_nodes(site.name), key=lambda n: n.node_id.value)
        members[0].fail()
        plane.overlay.elect_gateways()
        assert plane.overlay.gateways[site.index][0].address == members[1].address


class TestSiteRootOracle:
    def test_site_root_matches_overlay_oracle(self, plane):
        """``root_of(key, site_index)`` is the site member numerically
        closest to the key (ties to the lower id): the virtual boundary
        node a site-scoped route converges at."""
        key = NodeId.from_key("some-topic")
        for site in plane.registry:
            members = plane.site_nodes(site.name)
            expected = min(members, key=lambda n: (n.node_id.distance(key),
                                                    n.node_id.value))
            assert plane.overlay.root_of(key, site_index=site.index) is expected

    def test_site_root_skips_dead_nodes(self, plane):
        key = NodeId.from_key("another-topic")
        site = plane.registry[1]
        victim = plane.overlay.root_of(key, site_index=site.index)
        victim.fail()
        replacement = plane.overlay.root_of(key, site_index=site.index)
        assert replacement is not victim
        assert replacement.site.index == site.index

    def test_empty_site_raises(self, plane):
        with pytest.raises(ValueError):
            plane.overlay.root_of(NodeId(1), site_index=999)


def sites_with_tree_state(plane, topic):
    """Site indices of every node holding tree state for ``topic``."""
    return {node.site.index for node in plane.nodes
            if (state := node.scribe.topics().get(topic)) is not None
            and state.in_tree()}


class TestConfinementCheck:
    def test_confined_topic_passes(self, plane):
        admin = plane.admin("Tokyo")
        for node in plane.site_nodes("Tokyo")[:4]:
            admin.post_resource(node, "TPU", True)
        plane.sim.run()
        tokyo = next(s.index for s in plane.registry if s.name == "Tokyo")
        assert sites_with_tree_state(plane, "Tokyo/TPU") == {tokyo}

    def test_unknown_topic_trivially_confined(self, plane):
        assert sites_with_tree_state(plane, "ghost/topic") == set()
