"""Exact-size spec for the per-send size estimate.

``_estimate_size`` sizes the common leaves of a container in place and
recurses only into containers and strings its memo does not hold yet.
Every size it returns must be exactly what the plain recursion below
returns: ``net.bytes_sent``, ``bytes_per_msg`` and the fingerprints all
read it, and none of them may move.
"""

import math
import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import protocol_kind
from repro.net import message as message_module
from repro.net.latency import UniformLatencyModel, make_ec2_registry
from repro.net.message import Message, _estimate_size
from repro.net.network import Network
from repro.pastry.leafset import LeafSet
from repro.pastry.node import (_LS_REP_BASE, _LS_REP_PER_REF, _LS_REQ_SIZE,
                               PastryNode)
from repro.pastry.nodeid import NodeId
from repro.scribe.scribe import ScribeApplication
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams
from repro.transport.codec import decode_message, encode_message
from tests.conftest import build_overlay
from tests.test_transport_wire_golden import CORPUS, _message


#: Where admission lives: a size walk called from this file is one made
#: at admission.
ADMISSION_FILE = os.path.join("repro", "transport", "base.py")


def reference_size(value) -> int:
    """The size rule as one plain recursion, without a memo."""
    t = type(value)
    if t is str:
        return len(value.encode("utf-8"))
    if t is float or t is int:
        return 8
    if t is dict:
        return sum(reference_size(k) + reference_size(v) for k, v in value.items())
    if t in (list, tuple, set, frozenset):
        return sum(reference_size(v) for v in value)
    if value is None or t is bool:
        return 1
    if t is bytes:
        return len(value)
    return 16


class IntSub(int):
    pass


class Opaque:
    pass


HASHABLE = st.recursive(
    st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none(),
              st.binary(max_size=8), st.builds(IntSub, st.integers())),
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=3),
    max_leaves=6)

PAYLOADS = st.recursive(
    st.one_of(st.text(), st.integers(-2**70, 2**70), st.floats(), st.booleans(),
              st.none(), st.binary(max_size=16), st.builds(IntSub, st.integers()),
              st.builds(Opaque)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(HASHABLE, inner, max_size=5),
        st.sets(HASHABLE, max_size=4),
        st.frozensets(HASHABLE, max_size=4)),
    max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(PAYLOADS)
def test_estimate_matches_the_plain_recursion(value):
    want = reference_size(value)
    assert _estimate_size(value) == want
    # The first call memoized the strings; now they are sized in place.
    assert _estimate_size(value) == want


def test_fresh_and_memoized_strings_size_alike():
    fresh = f"never sized before: ü {id(object())}"
    assert fresh not in message_module._str_sizes
    for container in ({fresh: [fresh, (fresh,)]}, [fresh], (fresh, fresh)):
        assert _estimate_size(container) == reference_size(container)
    assert message_module._str_sizes[fresh] == len(fresh.encode("utf-8"))


def test_scalar_sizes():
    assert _estimate_size([True, False]) == 2  # bool is not an 8-byte int
    assert _estimate_size({"t": True}) == 2
    assert _estimate_size([None, b"abc"]) == 4
    assert _estimate_size([IntSub(5)]) == 16  # only exact int is a number
    assert _estimate_size({"o": Opaque()}) == 17
    assert _estimate_size((1, 2.5, math.inf)) == 24
    assert _estimate_size(["日本語"]) == 9


#: ``size_bytes()`` of every golden wire message, as the estimator gave
#: before its container loops sized leaves in place.
GOLDEN_SIZES = {
    "direct/query/commit": 105,
    "direct/query/release": 90,
    "direct/query/site_query": 223,
    "direct/query/site_result": 392,
    "direct/scribe/agg_push_batch": 229,
    "direct/scribe/agg_value": 150,
    "direct/scribe/anycast_result": 305,
    "direct/scribe/child_probe": 116,
    "direct/scribe/parent_set": 115,
    "pastry.ls_rep": 329,
    "pastry.ls_req": 51,
    "route/scribe/agg_get": 179,
    "route/scribe/join": 164,
    "edge/ints": 149,
    "edge/floats": 101,
    "edge/strings": 56,
    "edge/scalars": 37,
    "edge/containers": 138,
    "edge/envelope": 36,
    "edge/defaults": 24,
}


def test_golden_wire_messages_keep_their_sizes():
    sizes = {}
    for entry in CORPUS:
        msg: Message = _message(entry["message"])
        sizes[entry["name"]] = msg.size_bytes()
        assert sizes[entry["name"]] == (24 + reference_size(msg.kind)
                                        + reference_size(msg.payload))
    assert sizes == GOLDEN_SIZES


# ----------------------------------------------------------------------
# The leaf-set exchange sizes its sends as it builds them: every supplied
# size must equal the walk (a ``wire_check`` network raises otherwise).
# ----------------------------------------------------------------------

def test_exchange_size_constants():
    assert _LS_REQ_SIZE == 51
    assert _LS_REQ_SIZE == Message(kind="pastry.ls_req",
                                   payload={"origin": 2**40}).size_bytes()
    for n in range(41):
        refs = [(2**127 + k, k, k % 8) for k in range(n)]
        assert (_LS_REP_BASE + _LS_REP_PER_REF * n
                == Message(kind="pastry.ls_rep",
                           payload={"refs": refs}).size_bytes())


def _hub(peers):
    """A node whose leaf set is wide enough to hold ``peers`` others, all
    of them on one ``wire_check`` network (sites round-robin)."""
    sim = Simulator()
    network = Network(sim, UniformLatencyModel(0.5), wire_check=True)
    sites = list(make_ec2_registry())
    rng = random.Random(peers)
    nodes = []
    for k in range(peers + 1):
        node = PastryNode(NodeId.random(rng), sites[k % len(sites)])
        network.attach(node)
        nodes.append(node)
    hub = nodes[0]
    hub.leaf_set = LeafSet(hub.node_id, size=2 * (peers + 1))
    hub.enable_site_scope()
    for peer in nodes[1:]:
        hub.add_peer(peer.ref())
    return sim, network, nodes


def test_every_exchange_send_is_sized_as_the_walk():
    """Hubs with 0-39 neighbors (1-40 refs): announce, the ls_req repair
    and exchange sends of stabilize, and the replies they draw."""
    for peers in range(40):
        sim, network, nodes = _hub(peers)
        hub = nodes[0]
        seen = []
        network.set_delivery_hook(lambda m: seen.append(
            (m.kind, m.size, m.size_bytes())))
        hub.announce()
        if peers >= 2:
            nodes[1].fail()  # stabilize then sends its repair requests too
        hub.stabilize()
        sim.run()
        refs, size, _ = hub.neighborhood()
        assert len(refs) == len(hub.leaf_set) + 1
        assert size == Message(kind="pastry.ls_rep",
                               payload={"refs": refs}).size_bytes()
        kinds = {kind for kind, _, _ in seen}
        assert kinds == ({"pastry.ls_rep", "pastry.ls_req"} if peers else set())
        assert all(supplied == walked for _, supplied, walked in seen)


def test_crash_recovery_under_wire_check_sizes_every_send():
    """Crashes, repair rounds and announced recoveries on a site-scoped
    overlay whose network checks every supplied size (no WireSizeError)."""
    sim = Simulator()
    network = Network(sim, UniformLatencyModel(0.5), wire_check=True)
    overlay = build_overlay(sim, network, RandomStreams(5), make_ec2_registry(),
                            per_site=4, isolation=True)
    victims = overlay.nodes[::3]
    for victim in victims:
        victim.fail()
    for _ in range(3):
        for node in overlay.live_nodes():
            node.stabilize()
        sim.run()
    for victim in victims:
        network.reattach(victim)
        victim.announce()
    for _ in range(3):
        for node in overlay.live_nodes():
            node.stabilize()
        sim.run()
    assert {"pastry.ls_rep", "pastry.ls_req"} <= network.wire_kinds_seen
    assert network.wire_checked > 0


#: An aggregate per accumulator type, and the local value it lifts: sum
#: pushes a float, count an int, avg a tuple, any and all a bool (1 byte,
#: not an 8-byte int); a min with no value left pushes None.
_PUSHED_ACCS = (("sum", 2.5), ("count", 7), ("avg", 3.0), ("any", 1),
                ("min", None), ("all", 0))


@pytest.mark.parametrize("updates", range(1, 9))
def test_roll_up_batches_are_sized_as_the_walk(updates):
    """A flush sizes its ``agg_push_batch`` as it builds it: the size it
    supplies equals the walk of what it sent (a ``wire_check`` network
    raises otherwise).  Topics carry up to three aggregates each, so one
    batch holds several updates of one topic."""
    sim = Simulator()
    network = Network(sim, UniformLatencyModel(0.5), wire_check=True)
    site = next(iter(make_ec2_registry()))
    rng = random.Random(updates)
    child, parent = (PastryNode(NodeId.random(rng), site) for _ in range(2))
    for node in (child, parent):
        network.attach(node)
        node.register_app(ScribeApplication(sim))
    scribe = child.app("scribe")
    for k in range(updates):
        agg, value = _PUSHED_ACCS[k % len(_PUSHED_ACCS)]
        state = scribe.topic_state(f"Site{k // 3:03d}/load-\u00e9{k // 3}")
        state.parent = parent.address
        state.member = True
        if value is None:
            state.last_pushed[agg] = 1.0  # the extremum left
        else:
            state.local[agg] = value
        scribe._mark_dirty(child, state, [agg])
    supplied, send_app = [], child.send_app
    child.send_app = lambda *args: (supplied.append(args[4:]), send_app(*args))
    sent = []
    network.set_delivery_hook(sent.append)
    sim.run()
    batches = [m for m in sent if m.payload["kind"] == "agg_push_batch"]
    assert len(batches) == 1
    data = batches[0].payload["data"]
    assert len(data["updates"]) == updates
    assert len({u["topic"] for u in data["updates"]}) == -(-updates // 3)
    if updates >= len(_PUSHED_ACCS):
        assert ({type(u["acc"]) for u in data["updates"]}
                == {float, int, tuple, bool, type(None)})
    assert supplied == [(_estimate_size(data),)]
    assert batches[0].size == batches[0].size_bytes()
    assert network.wire_checked == len(sent)


def test_out_of_band_slots_never_reach_the_wire():
    """``size`` and ``state_version`` are not encoded and not part of
    ``==``; a decoded copy carries neither of the sender's: its size is
    the one its decode measured, and it has no state version."""
    for entry in CORPUS:
        msg = _message(entry["message"])
        body = encode_message(msg)
        msg.size, msg.state_version = 4096, 2**40
        assert encode_message(msg) == body
        assert msg == _message(entry["message"])
        decoded = decode_message(body)
        assert decoded.size == decoded.size_bytes() != 4096
        assert decoded.state_version is None


def _dressed_federation(wire_check):
    """A faulted, rebalancing federation at work: roll-ups, multi-hop
    Pastry joins, an admin multicast and queries, crashes, a partition
    and lost, duplicated and late messages."""
    from repro.core.plane import RBay, RBayConfig
    from repro.faults import FaultSchedule
    from repro.query.options import QueryOptions
    from repro.scribe.rebalance import RebalanceConfig
    from repro.workloads.generator import FederationWorkload, WorkloadSpec

    plane = RBay(RBayConfig(
        seed=11, synthetic_sites=3, nodes_per_site=8, jitter=True,
        maintenance_interval_ms=500.0, reservation_hold_ms=1_000.0,
        wire_check=wire_check,
        rebalance=RebalanceConfig(hot_threshold=10, cool_threshold=2,
                                  window_ms=500.0, hot_windows=2,
                                  cool_windows=4, max_replicas=2,
                                  min_children=2))).build()
    FederationWorkload(plane, WorkloadSpec(password="rbay")).apply()
    plane.register_buckets("CPU_utilization", 0.0, 100.0, buckets=4)
    plane.sim.run()
    plane.start_maintenance()
    sites = [site.name for site in plane.registry]
    for site in plane.registry:
        plane.add_node(site, join_via=plane.site_nodes(site.name)[0])
    admin = plane.admin(sites[0])
    for node in plane.site_nodes(sites[0])[:4]:
        admin.post_resource(node, "for_rent", True, tree="for_rent")
    plane.settle(1_000.0)
    admin.broadcast_command(plane.site_nodes(sites[0])[0], "for_rent",
                            "for_rent", {"note": "ü"})
    plane.install_faults(FaultSchedule.randomized(
        random.Random(8), duration_ms=4_000.0, node_count=len(plane.nodes),
        crash_fraction=0.3, mean_downtime_ms=1_500.0, site_names=sites,
        partitions=1, mean_partition_ms=1_500.0, drop_prob=0.1,
        duplicate_prob=0.05, extra_delay_ms=3.0).shifted(plane.sim.now))
    for index, sql in enumerate((
            "SELECT 2 FROM * WHERE CPU_utilization BETWEEN 10 AND 60;",
            f"SELECT * FROM {sites[1]} GROUP BY CPU_utilization;",
            "SELECT 1 FROM * WHERE CPU_utilization < 30%;") * 3):
        options = QueryOptions(origin=sites[index % 3],
                               payload={"password": "rbay"})
        plane.sim.schedule(400.0 * index,
                           lambda sql=sql, options=options:
                           plane.submit(sql, options=options))
    plane.settle(6_000.0)
    plane.stop_maintenance()
    plane.sim.run()
    return plane


def test_no_pastry_built_send_is_walked_at_admission(monkeypatch):
    """Every send Pastry builds names its size, so admission walks none of
    them (it walks only a send that names no size); under ``wire_check``
    every named size is compared with the walk, and none differs.  Every
    hop of an anycast walk is sized by its sender, the first hop of a walk
    that starts at the tree's root included: ``send_app`` walks none."""
    walked = []
    size_bytes = Message.size_bytes

    def counted(msg):
        if sys._getframe(1).f_code.co_filename.endswith(ADMISSION_FILE):
            walked.append(protocol_kind(msg))
        return size_bytes(msg)

    walk_hops = []  # (what ran the walk step, sized by it) per hop
    send_app = PastryNode.send_app

    def sized_by_caller(node, dst_address, app_name, kind, payload,
                        size=None):
        if kind == "anycast_walk":  # sent by _anycast_visit: who ran it?
            walk_hops.append((sys._getframe(2).f_code.co_name,
                              size is not None))
        send_app(node, dst_address, app_name, kind, payload, size)

    monkeypatch.setattr(Message, "size_bytes", counted)
    monkeypatch.setattr(PastryNode, "send_app", sized_by_caller)
    net = _dressed_federation(wire_check=False).network
    assert net.messages_sent > 2_000 and net.messages_dropped > 0
    assert walked == []
    # A walk's step runs where the walk starts (mid-route in ``forward``,
    # at the root in ``deliver``, at a replica a rebalanced read was
    # diverted to in ``host_message``) and where a hop arrives.
    steps = set(walk_hops)
    assert steps == {("forward", True), ("deliver", True),
                     ("host_message", True)}
    # Under wire_check admission walks every send to check its named
    # size (a wrong one raises WireSizeError at its send).
    checked = _dressed_federation(wire_check=True).network
    assert set(walked) == checked.wire_kinds_seen
    assert {"route/join/", "route/scribe/join", "route/scribe/mcast",
            "route/scribe/anycast", "direct/scribe/anycast_walk",
            "direct/scribe/mcast_down", "direct/scribe/agg_push_batch",
            "direct/join/state", "direct/query/site_query",
            "pastry.ls_req", "pastry.ls_rep"} <= set(walked)
