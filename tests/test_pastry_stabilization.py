"""Tests for overlay stabilization under churn."""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.net.latency import UniformLatencyModel, make_ec2_registry
from repro.net.message import Message
from repro.net.network import FaultDecision, Network
from repro.pastry.node import Application
from repro.pastry.nodeid import NodeId
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams
from tests.conftest import build_overlay


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


# ----------------------------------------------------------------------
# A quiet exchange costs nothing: a leaf-set reply built from the version
# the sender's last reply carried, met by the stamp that ingest left, is
# skipped.  Each test below fails on one wrong skip rule.
# ----------------------------------------------------------------------

def _ring(overlay):
    return sorted(overlay.nodes, key=lambda n: n.node_id.value)


def _exchange(sim, asker, partner):
    """``asker`` pulls ``partner``'s neighborhood (one ls_req / ls_rep)."""
    asker.send(partner.address, Message(kind="pastry.ls_req",
                                        payload={"origin": asker.address}))
    sim.run()


def _reply_from(node):
    """The ls_rep ``node`` would send now, as an in-flight copy."""
    refs, _, version = node.neighborhood()
    msg = Message(kind="pastry.ls_rep", payload={"refs": refs},
                  src=node.address)
    msg.state_version = version
    return msg


def _count_ingests(node):
    """Wrap ``node.add_peer``; a skipped reply offers it nothing."""
    calls = []
    original = node.add_peer
    node.add_peer = lambda ref: (calls.append(ref.address), original(ref))
    return calls


def test_an_unchanged_reply_is_skipped(sim, overlay):
    ring = _ring(overlay)
    b, a = ring[0], ring[1]
    calls = _count_ingests(b)
    _exchange(sim, b, a)
    assert calls
    calls.clear()
    _exchange(sim, b, a)
    assert calls == []


def test_a_silent_recovery_is_relearned_from_an_unchanged_reply(sim, overlay):
    """(a) A peer crash-recovers while neither node's versions move: the
    next reply from the same, unchanged partner re-teaches it.  Only the
    liveness epoch tells the two replies apart."""
    ring = _ring(overlay)
    b, a, p = ring[0], ring[1], ring[2]
    assert p.address in a.leaf_set and p.address in b.leaf_set
    b.remove_peer(p.address)
    p.fail()
    _exchange(sim, b, a)
    assert p.address not in b.leaf_set
    versions = [_state(n) for n in (a, b)]
    overlay.network.reattach(p)  # no announce: nothing tells b directly
    assert [_state(n) for n in (a, b)] == versions
    _exchange(sim, b, a)
    assert p.address in b.leaf_set


def test_a_reply_fills_site_structures_allocated_after_it(sim, overlay):
    """(b) Site scope is enabled after an ingest: the same reply must now
    fill the site structures, though all four versions read as before
    (an empty site structure is not an absent one)."""
    ring = _ring(overlay)
    b = ring[0]
    assert b.site_leaf_set is None
    a = next(n for n in ring[1:] if any(
        site == b.site.index and address != b.address
        for _, address, site in n.neighborhood()[0]))
    _exchange(sim, b, a)
    b.enable_site_scope()
    calls = _count_ingests(b)
    _exchange(sim, b, a)
    assert calls
    assert len(b.site_leaf_set) > 0 and len(b.site_routing_table) > 0


def test_a_late_reply_is_ingested_against_the_state_it_finds(sim, overlay):
    """(c) A reply is delivered, then a late copy of it arrives after the
    receiver's own state has moved past it (it purged a peer meanwhile).
    The copy carries the very version the memo holds for its sender, yet
    it is ingested against the state it finds and re-teaches the peer."""
    ring = _ring(overlay)
    b, a, p = ring[0], ring[1], ring[2]
    reply, late_copy = _reply_from(a), _reply_from(a)
    b.on_message(reply)
    b.remove_peer(p.address)
    b.on_message(late_copy)
    assert p.address in b.leaf_set


def _state(node):
    """Each routing structure's refs (proximities included) and version;
    None for an unallocated site scope."""
    def refs(members):
        return [(r.address, r.node_id.value, r.site_index, r.proximity_ms)
                for r in members]
    return [None if leaf_set is None else
            (refs(leaf_set.members()), leaf_set.version,
             refs(table.entries()), table.version)
            for leaf_set, table in ((node.leaf_set, node.routing_table),
                                    (node.site_leaf_set, node.site_routing_table))]


_OPS = st.lists(st.tuples(
    st.sampled_from(["crash", "recover", "reattach", "exchange", "purge",
                     "scope", "duplicate"]),
    st.integers(0, 5), st.integers(0, 2)), min_size=1, max_size=30)


#: A step that does nothing of its own: only the standing round runs.
_QUIET = ("duplicate", 0, 0)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_OPS)
# The three ways a skip can go wrong, each pinned once: a silent recovery
# (only the epoch moves), site scope allocated late, a purge.
@example(ops=[_QUIET, ("crash", 0, 0), _QUIET, _QUIET, ("reattach", 0, 0), _QUIET])
@example(ops=[_QUIET, _QUIET, ("scope", 0, 0), _QUIET])
@example(ops=[_QUIET, _QUIET, ("purge", 0, 0), _QUIET])
def test_skipping_equals_ingesting_everything(ops):
    """(d) Small overlays under random crashes, silent and announced
    recoveries, purges, late-enabled site scope and duplicated deliveries:
    after every step, every node's leaf sets, routing entries, proximities
    and versions equal those of a ``wire_check`` twin, whose decoded
    copies carry no version and so are always ingested in full.  Each step
    ends with a standing round in which the first six nodes on the ring
    stabilize (purge what they believe dead, pull one of two partners):
    mostly replies whose partner has not changed since its last one, the
    replies the skip applies to."""
    twins = []
    for wire_check in (False, True):
        sim = Simulator()
        network = Network(sim, UniformLatencyModel(0.5), wire_check=wire_check)
        overlay = build_overlay(sim, network, RandomStreams(7),
                                make_ec2_registry(), per_site=3)
        sends = {"count": 0, "duplicate_below": 0}

        def duplicate(src, dst, msg, sends=sends):
            sends["count"] += 1
            if sends["count"] <= sends["duplicate_below"]:
                return FaultDecision(duplicates=1)
            return None

        network.fault_filter = duplicate
        twins.append((sim, network, overlay, sends))
    for op, i, j in ops:
        for sim, network, overlay, sends in twins:
            # ``other`` is a ring neighbor of ``node``, so crashes, purges
            # and exchanges meet peers the standing round shares.
            ring = _ring(overlay)
            node, other = ring[i], ring[i + j + 1]
            down = [n for n in ring if not network.has_host(n.address)]
            if op == "crash" and network.has_host(other.address):
                other.fail()
            elif op in ("recover", "reattach") and down:
                back = down[i % len(down)]
                network.reattach(back)
                if op == "recover":
                    back.announce()
            elif (op == "exchange" and network.has_host(node.address)
                    and network.has_host(other.address)):
                _exchange(sim, node, other)
            elif op == "purge":
                node.remove_peer(other.address)
            elif op == "scope":
                node.enable_site_scope()
            elif op == "duplicate":
                # The next ``j`` sends are each delivered twice.
                sends["duplicate_below"] = sends["count"] + j
            sim.run()
            for member in ring[:6]:
                if network.has_host(member.address):
                    member.stabilize()
            sim.run()
        plain, decoded = ([_state(n) for n in _ring(twin[2])] for twin in twins)
        assert plain == decoded, (op, i, j)
    assert twins[1][1].wire_checked > 0


# ----------------------------------------------------------------------
# A leaf-set reply is built once per version: neighborhood() is a pure
# function of the two leaf sets, memoized on their versions.
# ----------------------------------------------------------------------

def _fresh_neighborhood(node):
    """``neighborhood()`` rebuilt from the leaf sets, with no memo."""
    neighbors = {ref.address: ref for ref in node.leaf_set.members()}
    version = node.leaf_set.version
    if node.site_leaf_set is not None:
        for ref in node.site_leaf_set.members():
            neighbors.setdefault(ref.address, ref)
        version += node.site_leaf_set.version
    refs = [(r.node_id.value, r.address, r.site_index)
            for r in neighbors.values()]
    refs.append((node.node_id.value, node.address, node.site.index))
    size = Message(kind="pastry.ls_rep", payload={"refs": refs}).size_bytes()
    return refs, size, version


_PEER_OPS = st.lists(st.tuples(st.sampled_from(("add", "remove", "site")),
                               st.integers(0, 23)), max_size=60)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**16), ops=_PEER_OPS)
@example(seed=1, ops=[("add", 0), ("site", 0), ("add", 0)])  # site set only
def test_a_memoized_neighborhood_equals_a_fresh_build(seed, ops):
    """After any sequence of ``add_peer`` / ``remove_peer`` /
    ``enable_site_scope``, ``neighborhood()`` equals a build from scratch;
    asked again with nothing changed, it hands out the same refs."""
    import random

    from repro.pastry.node import PastryNode
    from repro.pastry.routing_table import NodeRef

    rng = random.Random(seed)
    sites = list(make_ec2_registry())[:3]
    network = Network(Simulator(), UniformLatencyModel(0.5))
    node = PastryNode(NodeId.random(rng), sites[0])
    network.attach(node)
    peers = [NodeRef(NodeId.random(rng), 100 + k, sites[k % 3].index)
             for k in range(24)]
    assert node.neighborhood() == _fresh_neighborhood(node)
    for op, k in ops:
        if op == "add":
            node.add_peer(peers[k])
        elif op == "remove":
            node.remove_peer(peers[k].address)
        else:
            node.enable_site_scope()
        built = node.neighborhood()
        assert built == _fresh_neighborhood(node)
        assert node.neighborhood()[0] is built[0]
