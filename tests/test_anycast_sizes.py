"""The anycast walk's carried sizes are exact.

A DFS hop does not walk the state it forwards: it supplies the size the
message arrived with, plus 8 per address it appends, plus the visitor's
change to the state when the visitor replaced it
(``ScribeApplication._anycast_visit``).  Over random site trees, member
sets and visitors — one that adds an entry, one that adds nothing, one
that is satisfied — with duplicated and crashed hops, every admitted send
must cost exactly what the plain size recursion says the message weighs.
Under ``wire_check`` the transport also compares every supplied size
with the walk and raises :class:`WireSizeError` on a mismatch.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import protocol_kind
from repro.net.latency import UniformLatencyModel, make_ec2_registry
from repro.net.network import FaultDecision, Network
from repro.pastry.node import envelope_size
from repro.pastry.overlay import Overlay
from repro.scribe.scribe import ScribeApplication
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams
from repro.transport.base import WireSizeError
from tests.test_net_message_size import reference_size

TOPIC = "T"
WALK = "direct/scribe/anycast_walk"


def _visitor(modes, notes):
    """A visitor whose behaviour at each member is drawn per address."""
    def visit(node, topic, state):
        mode = modes.get(node.address, "none")
        if mode == "none":
            return state, False
        state = {**state, "entries": state["entries"] + [
            {"address": node.address, "note": notes[node.address % len(notes)]}]}
        return state, mode == "satisfied"
    return visit


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), per_site=st.integers(4, 10),
       members=st.integers(1, 10), wire_check=st.booleans(),
       modes=st.lists(st.sampled_from(("add", "none", "satisfied")),
                      min_size=10, max_size=10),
       notes=st.lists(st.text(max_size=6), min_size=1, max_size=4),
       duplicated=st.sets(st.integers(0, 12), max_size=3),
       crashed=st.sets(st.integers(0, 12), max_size=2))
def test_every_walk_send_costs_what_it_weighs(seed, per_site, members,
                                              wire_check, modes, notes,
                                              duplicated, crashed):
    sim = Simulator()
    network = Network(sim, UniformLatencyModel(0.5), wire_check=wire_check)
    streams = RandomStreams(seed)
    overlay = Overlay(sim, network, streams, make_ec2_registry(), isolation=True)
    overlay.create_population(per_site)
    overlay.bootstrap()
    for node in overlay.nodes:
        node.register_app(ScribeApplication(sim))
    rng = streams.stream("members")
    site_nodes = [n for n in overlay.nodes if n.site.index == 0]
    chosen = rng.sample(site_nodes, min(members, len(site_nodes)))
    for node in chosen:
        node.app("scribe").join(node, TOPIC, scope="site")
    sim.run()
    visitor = _visitor({node.address: mode for node, mode in zip(chosen, modes)},
                       notes)
    for node in overlay.nodes:
        node.app("scribe").anycast_visitor = visitor

    # Fault filter: the i-th walk send is duplicated, or its destination
    # crashes while the copy is in flight.
    walk_index = itertools.count()

    def faults(src, dst, msg):
        if protocol_kind(msg) != WALK:
            return None
        index = next(walk_index)
        if index in crashed:
            sim.call_soon(dst.fail)
        if index in duplicated:
            return FaultDecision(duplicates=1)
        return None

    network.fault_filter = faults
    checked = []
    admit = network.send

    def checked_admit(src, dst_address, msg, size=None):
        sent, sent_bytes = network.messages_sent, network.bytes_sent
        result = admit(src, dst_address, msg, size)
        copies = network.messages_sent - sent
        if copies:
            weight = 24 + reference_size(msg.kind) + reference_size(msg.payload)
            assert network.bytes_sent - sent_bytes == copies * weight, (
                protocol_kind(msg), size, weight)
            checked.append(protocol_kind(msg))
        return result

    network.send = checked_admit
    asker = site_nodes[-1]
    future = asker.app("scribe").anycast(
        asker, TOPIC, {"entries": []}, timeout=2_000.0, scope="site")
    sim.run()
    if isinstance(future.value, dict):
        assert future.value["visited_members"] <= len(chosen)
    assert checked or crashed


def test_walk_hops_supply_their_size():
    """The exactness test above is about supplied sizes: make sure the
    walk does supply them (a walk that let the transport size every hop
    would pass it vacuously)."""
    sim = Simulator()
    network = Network(sim, UniformLatencyModel(0.5), wire_check=True)
    streams = RandomStreams(5)
    overlay = Overlay(sim, network, streams, make_ec2_registry(), isolation=True)
    overlay.create_population(10)
    overlay.bootstrap()
    for node in overlay.nodes:
        node.register_app(ScribeApplication(sim))
    site_nodes = [n for n in overlay.nodes if n.site.index == 0]
    for node in site_nodes[:8]:
        node.app("scribe").join(node, TOPIC, scope="site")
    sim.run()
    visitor = _visitor({n.address: "add" for n in site_nodes}, ["ü"])
    for node in overlay.nodes:
        node.app("scribe").anycast_visitor = visitor
    supplied = []
    admit = network.send

    def recording_admit(src, dst_address, msg, size=None):
        if protocol_kind(msg) == WALK:
            supplied.append(size)
        return admit(src, dst_address, msg, size)

    network.send = recording_admit
    asker = site_nodes[-1]
    result = asker.app("scribe").anycast(
        asker, TOPIC, {"entries": []}, scope="site").result()
    assert len(result["entries"]) == result["visited_members"] == 8
    assert supplied and None not in supplied[1:]


def test_a_wrong_supplied_size_is_refused_under_wire_check():
    sim = Simulator()
    network = Network(sim, UniformLatencyModel(0.5), wire_check=True)
    overlay = Overlay(sim, network, RandomStreams(3), make_ec2_registry())
    overlay.create_population(2)
    overlay.bootstrap()
    a, b = overlay.nodes[:2]
    data = {"topic": TOPIC, "visited": [a.address]}
    walked = reference_size(data)
    a.send_app(b.address, "scribe", "anycast_walk", data, walked)
    with pytest.raises(WireSizeError):
        a.send_app(b.address, "scribe", "anycast_walk", data, walked - 8)
    # Without the check the sender's word is taken.
    network.wire_check = False
    before = network.bytes_sent
    a.send_app(b.address, "scribe", "anycast_walk", data, walked - 8)
    assert network.bytes_sent - before == (
        envelope_size("scribe", "anycast_walk") + walked - 8)


def test_envelope_plus_data_is_the_direct_message_size():
    from repro.net.message import Message

    for app, kind, data in (("scribe", "anycast_walk", {"visited": [1, 2]}),
                            ("query", "site_result", {"entries": ["ü"]})):
        msg = Message("pastry.direct", {"app": app, "kind": kind,
                                        "data": data, "origin": 7})
        assert msg.size_bytes() == envelope_size(app, kind) + reference_size(data)
