"""AsyncioTransport carriage tests: sockets, ports, cut/heal, codec
errors, partitioned mode.  Everything shared with the DES network runs in
``tests/test_transport_conformance.py``."""

import pytest

from repro.net.message import Message
from repro.net.network import Host
from repro.net.site import SiteRegistry
from repro.transport.asyncio_transport import AsyncioTransport
from repro.transport.realtime import RealtimeScheduler


class Recorder(Host):
    def __init__(self, site):
        super().__init__(site)
        self.received = []

    def on_message(self, msg):
        self.received.append(msg)


class Echo(Host):
    """Replies to every ping with a pong (exercises send-from-handler)."""

    def __init__(self, site):
        super().__init__(site)
        self.pings = 0

    def on_message(self, msg):
        if msg.kind == "ping":
            self.pings += 1
            self.send(msg.src, Message(kind="pong",
                                       payload={"n": msg.payload["n"]}))


@pytest.fixture
def rig():
    sched = RealtimeScheduler(time_scale=0.01, poll_interval_s=0.0005)
    registry = SiteRegistry()
    registry.add("A", "r")
    registry.add("B", "r")
    sites = list(registry)
    net = AsyncioTransport(sched, connect_timeout_s=0.5,
                           connect_retries=1, connect_backoff_s=0.02)
    yield sched, sites, net
    net.close()
    sched.close()


def conserve(net):
    return (net.messages_sent
            == net.messages_delivered + net.messages_dropped
            + net.messages_in_flight)


def test_ping_pong_over_real_sockets(rig):
    sched, sites, net = rig
    a = Recorder(sites[0])
    b = Echo(sites[1])
    net.attach(a)
    net.attach(b)
    assert net.host_count == 2 and net.has_host(a.address)
    assert net.port_of(a.address) is not None  # a real listening socket
    for n in range(10):
        a.send(b.address, Message(kind="ping", payload={"n": n}))
    assert sched.run_until(lambda: len(a.received) == 10, timeout=20_000.0)
    assert b.pings == 10
    assert sorted(m.payload["n"] for m in a.received) == list(range(10))
    # Per-destination frames arrive in send order over one connection.
    assert [m.payload["n"] for m in a.received] == list(range(10))
    assert net.messages_sent == 20
    assert net.messages_delivered == 20
    assert net.wire_bytes_sent > 0
    assert conserve(net)


def test_messages_decoded_copies_not_shared_objects(rig):
    sched, sites, net = rig
    a = Recorder(sites[0])
    b = Recorder(sites[1])
    net.attach(a)
    net.attach(b)
    original = Message(kind="data", payload={"list": [1, 2]})
    a.send(b.address, original)
    assert sched.run_until(lambda: b.received, timeout=20_000.0)
    got = b.received[0]
    assert got.payload == original.payload
    assert got.payload is not original.payload  # crossed the codec


def test_detach_reattach_keeps_stable_port(rig):
    sched, sites, net = rig
    a = Recorder(sites[0])
    b = Recorder(sites[1])
    net.attach(a)
    net.attach(b)
    port = net.port_of(b.address)
    net.detach(b)
    sched.run_for(50.0)  # let the server close
    net.reattach(b)
    assert net.port_of(b.address) == port
    a.send(b.address, Message(kind="hello-again", payload={}))
    assert sched.run_until(lambda: b.received, timeout=20_000.0)
    assert conserve(net)


def test_cut_drops_then_heal_resumes(rig):
    sched, sites, net = rig
    a = Recorder(sites[0])
    b = Recorder(sites[1])
    net.attach(a)
    net.attach(b)
    a.send(b.address, Message(kind="before", payload={}))
    assert sched.run_until(lambda: len(b.received) == 1, timeout=20_000.0)
    net.cut(b.address)
    a.send(b.address, Message(kind="during", payload={}))
    assert sched.run_until(lambda: net.messages_dropped == 1,
                           timeout=20_000.0)
    assert len(b.received) == 1
    net.heal(b.address)
    a.send(b.address, Message(kind="after", payload={}))
    assert sched.run_until(lambda: len(b.received) == 2, timeout=20_000.0)
    assert [m.kind for m in b.received] == ["before", "after"]
    assert conserve(net)


def test_reset_counters(rig):
    sched, sites, net = rig
    a = Recorder(sites[0])
    b = Recorder(sites[1])
    net.attach(a)
    net.attach(b)
    a.send(b.address, Message(kind="x", payload={}))
    assert sched.run_until(lambda: b.received, timeout=20_000.0)
    net.reset_counters()
    assert net.messages_sent == net.messages_in_flight == 0
    assert net.messages_delivered == 0
    assert net.wire_bytes_sent == 0
    assert conserve(net)


def test_close_is_idempotent(rig):
    _sched, sites, net = rig
    net.attach(Recorder(sites[0]))
    net.close()
    net.close()


def test_handler_error_fails_the_pump(rig):
    sched, sites, net = rig

    class Broken(Host):
        def on_message(self, msg):
            raise RuntimeError("handler bug")

    a = Recorder(sites[0])
    b = Broken(sites[1])
    net.attach(a)
    net.attach(b)
    a.send(b.address, Message(kind="boom", payload={}))
    with pytest.raises(RuntimeError, match="handler bug"):
        sched.run_until(lambda: False, timeout=20_000.0)


def test_corrupt_frame_reports_codec_error(rig):
    import socket
    import struct

    from repro.transport.codec import CodecError

    sched, sites, net = rig
    b = Recorder(sites[1])
    net.attach(b)
    garbage = b"\xffnot a message"
    with socket.create_connection(("127.0.0.1", net.port_of(b.address))) as s:
        s.sendall(struct.pack(">I", len(garbage)) + garbage)
    with pytest.raises(CodecError):
        sched.run_until(lambda: net.messages_dropped == 1, timeout=20_000.0)
    assert b.received == []


def serve_plan(port_base):
    from repro.transport.serve import PeerPlan

    doc = PeerPlan.default_document(["A", "B"], port_base=port_base,
                                    stride=4)
    return doc


def test_partitioned_transports_federate_over_planned_ports(rig):
    """Two transports in one process, each owning one site: the in-unit
    analogue of process-per-site serve mode (suppressed shadows, planned
    ports, settle-on-write accounting)."""
    import json
    import os

    from repro.transport.serve import PeerPlan

    sched, sites, _net = rig
    doc = serve_plan(51_000 + (os.getpid() % 2_000) * 4)
    plan_a = PeerPlan.from_json(json.dumps(doc), owned={"A"})
    plan_b = PeerPlan.from_json(json.dumps(doc), owned={"B"})
    net_a = AsyncioTransport(sched, connect_timeout_s=0.5,
                             connect_retries=1, connect_backoff_s=0.02,
                             peer_plan=plan_a)
    net_b = AsyncioTransport(sched, connect_timeout_s=0.5,
                             connect_retries=1, connect_backoff_s=0.02,
                             peer_plan=plan_b)
    try:
        # Same-seed planes attach in the same order everywhere; mirror that.
        a_real = Echo(sites[0])
        b_shadow = Echo(sites[1])
        net_a.attach(a_real)
        net_a.attach(b_shadow)
        a_shadow = Recorder(sites[0])
        b_real = Echo(sites[1])
        net_b.attach(a_shadow)
        net_b.attach(b_real)
        assert net_a.port_of(a_real.address) == doc["sites"]["A"]["port_base"]
        assert net_b.port_of(b_real.address) == doc["sites"]["B"]["port_base"]
        assert net_a.port_of(b_shadow.address) is None  # shadows don't bind

        a_real.send(b_shadow.address, Message(kind="ping", payload={"n": 1}))
        b_shadow.send(a_real.address, Message(kind="ping", payload={"n": 2}))
        assert net_a.messages_suppressed == 1  # the shadow stayed silent
        assert sched.run_until(lambda: b_real.pings == 1, timeout=20_000.0)
        # b_real's pong crossed back through net_b to net_a's served host.
        assert sched.run_until(
            lambda: net_a.messages_delivered == 1, timeout=20_000.0)
        assert net_a.messages_in_flight == 0  # settled at write-completion
        assert net_b.messages_in_flight == 0
    finally:
        net_a.close()
        net_b.close()


def test_partitioned_connect_failure_becomes_drop(rig):
    """A peer process that never came up: bounded connect retries, then
    the frame dies as a counted drop and protocol timeouts take over."""
    import json
    import os

    from repro.transport.serve import PeerPlan

    sched, sites, _net = rig
    doc = serve_plan(53_000 + (os.getpid() % 2_000) * 4)  # nothing listens
    plan = PeerPlan.from_json(json.dumps(doc), owned={"A"})
    net = AsyncioTransport(sched, connect_timeout_s=0.2,
                           connect_retries=1, connect_backoff_s=0.01,
                           peer_plan=plan)
    try:
        a = Recorder(sites[0])
        ghost = Recorder(sites[1])
        net.attach(a)
        net.attach(ghost)
        a.send(ghost.address, Message(kind="x", payload={}))
        assert sched.run_until(lambda: net.messages_dropped == 1,
                               timeout=20_000.0)
        assert net.messages_in_flight == 0
        assert ghost.received == []
    finally:
        net.close()
