"""Tests for overlay stabilization under churn."""

import pytest

from repro.pastry.node import Application
from repro.pastry.nodeid import NodeId


class Probe(Application):
    name = "probe"

    def __init__(self, log):
        self.log = log

    def deliver(self, node, key, msg):
        self.log.append(node)


def test_stabilize_removes_dead_members(sim, overlay):
    node = overlay.nodes[0]
    victims = [ref for ref in node.leaf_set.members()][:3]
    for ref in victims:
        overlay.network.host(ref.address).fail()
    removed = node.stabilize()
    assert removed == 3
    member_addresses = {r.address for r in node.leaf_set.members()}
    assert not member_addresses & {v.address for v in victims}


def test_stabilize_acts_on_the_nodes_own_liveness_belief(sim, overlay):
    """``believes_alive`` is the one liveness question: a leaf-set member
    this node disbelieves is purged although the transport still hosts it."""
    node = overlay.nodes[0]
    suspect = node.leaf_set.members()[0].address
    assert overlay.network.has_host(suspect)
    node.believes_alive = lambda address: address != suspect
    assert node.stabilize() == 1
    assert suspect not in {r.address for r in node.leaf_set.members()}


def test_stabilize_noop_when_healthy(sim, overlay):
    node = overlay.nodes[0]
    before = len(node.leaf_set)
    assert node.stabilize() == 0
    assert len(node.leaf_set) == before


def test_stabilize_refills_from_neighbors(sim, overlay):
    node = overlay.nodes[0]
    before = len(node.leaf_set)
    victims = [ref for ref in node.leaf_set.members()][:4]
    for ref in victims:
        overlay.network.host(ref.address).fail()
    node.stabilize()
    sim.run()  # let ls_req / ls_rep exchanges land
    # The leaf set refilled toward its previous occupancy with live nodes.
    assert len(node.leaf_set) >= before - 4
    assert all(overlay.network.has_host(r.address) for r in node.leaf_set.members())


def test_routing_correct_after_heavy_churn_with_stabilization(sim, streams, overlay):
    log = []
    for node in overlay.nodes:
        node.register_app(Probe(log))
    rng = streams.stream("churn")
    victims = rng.sample(overlay.nodes, len(overlay.nodes) // 3)
    for victim in victims:
        victim.fail()
    # Two stabilization rounds across the surviving population.
    for _ in range(2):
        for node in overlay.live_nodes():
            node.stabilize()
        sim.run()
    for _ in range(80):
        key = NodeId.random(rng)
        source = rng.choice(overlay.live_nodes())
        source.route(key, "probe", {})
        sim.run()
        assert log[-1] is overlay.root_of(key)


def test_leaf_sets_purged_after_stabilization(sim, streams, overlay):
    rng = streams.stream("purge")
    victims = rng.sample(overlay.nodes, 10)
    dead = {v.address for v in victims}
    for victim in victims:
        victim.fail()
    for _ in range(2):
        for node in overlay.live_nodes():
            node.stabilize()
        sim.run()
    for node in overlay.live_nodes():
        assert not dead & {r.address for r in node.leaf_set.members()}


def test_maintenance_tick_invokes_stabilization():
    from repro.core.plane import RBay, RBayConfig

    plane = RBay(RBayConfig(seed=55, nodes_per_site=8, jitter=False)).build()
    plane.sim.run()
    node = plane.nodes[0]
    victim_ref = node.leaf_set.members()[0]
    plane.network.host(victim_ref.address).fail()
    node.maintenance_tick()
    plane.sim.run()
    assert victim_ref.address not in {r.address for r in node.leaf_set.members()}
    assert node.stats["stabilize_repairs"] >= 1


def test_periodic_exchange_heals_mutual_knowledge_loss(sim, overlay):
    """Regression: two nodes that purged each other (overlapping crash
    windows — each recovered while absent from the other's leaf set, so
    neither recovery announce reached the other) must re-link through the
    standing neighbor exchange, without any further failure to trigger a
    repair round."""
    a = overlay.nodes[0]
    b_ref = a.leaf_set.members()[0]
    b = overlay.network.host(b_ref.address)
    a.remove_peer(b.address)
    b.remove_peer(a.address)
    assert b.address not in {r.address for r in a.leaf_set.members()}
    for _ in range(6):
        a.stabilize()
        sim.run()
    assert b.address in {r.address for r in a.leaf_set.members()}
    assert a.stats["stabilize_exchanges"] >= 1
