"""AsyncioTransport carriage tests: sockets, ports, cut/heal, codec
errors, the receive-side frame cap, the bounded per-peer queue, pump
wake-ups, partitioned mode.  Everything shared with the DES network runs
in ``tests/test_transport_conformance.py``."""

import asyncio
import socket
import struct
import time

import pytest

from repro.net.message import Message
from repro.net.network import Host
from repro.net.site import SiteRegistry
from repro.transport import asyncio_transport
from repro.transport.asyncio_transport import AsyncioTransport
from repro.transport.codec import (CodecError, encode_frame, encode_message,
                                   frame)
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


def make_rig(**scheduler_options):
    sched = RealtimeScheduler(time_scale=0.01, **scheduler_options)
    registry = SiteRegistry()
    registry.add("A", "r")
    registry.add("B", "r")
    sites = list(registry)
    net = AsyncioTransport(sched, connect_timeout_s=0.5,
                           connect_retries=1, connect_backoff_s=0.02)
    return sched, sites, net


@pytest.fixture
def rig():
    sched, sites, net = make_rig()
    yield sched, sites, net
    net.close()
    sched.close()


@pytest.fixture
def slow_tick_rig():
    """A fallback tick so long (0.25 s) that anything prompt was a kick."""
    sched, sites, net = make_rig(poll_interval_s=0.25)
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
    sched, sites, net = rig
    b = Recorder(sites[1])
    net.attach(b)
    garbage = b"\xffnot a message"
    with socket.create_connection(("127.0.0.1", net.port_of(b.address))) as s:
        s.sendall(struct.pack(">I", len(garbage)) + garbage)
    with pytest.raises(CodecError):
        sched.run_until(lambda: net.messages_dropped == 1, timeout=20_000.0)
    assert b.received == []


def _corrupt(body, old, new):
    assert old in body
    return body.replace(old, new)


@pytest.mark.parametrize("bad_body", [
    _corrupt(encode_message(Message(kind="t", payload={"k": "value"})),
             b"value", b"va\xffue"),                     # invalid UTF-8
    _corrupt(encode_message(Message(kind="t", payload={"k": None})),
             b"S\x00\x00\x00\x01k", b"L\x00\x00\x00\x00"),  # {[]: None}
], ids=["invalid-utf8", "list-keyed-dict"])
def test_undecodable_body_is_a_counted_drop_and_the_stream_goes_on(rig, bad_body):
    """The decoder is total: a body it cannot parse is a CodecError the
    pump hears about and one counted drop — not an exception that kills
    the connection's reader with the frame neither delivered nor dropped."""
    sched, sites, net = rig
    b = Recorder(sites[1])
    net.attach(b)
    after = encode_frame(Message(kind="after", payload={}))
    with socket.create_connection(("127.0.0.1", net.port_of(b.address))) as s:
        s.sendall(frame(bad_body) + after)
        with pytest.raises(CodecError):
            sched.run_until(lambda: False, timeout=20_000.0)
        assert sched.run_until(lambda: b.received, timeout=20_000.0)
    assert [m.kind for m in b.received] == ["after"]
    assert net.messages_dropped == 1
    assert conserve(net)


def test_oversized_length_prefix_is_refused_on_receive(rig):
    """MAX_FRAME_BYTES holds where frames *arrive*: a prefix claiming
    128 MiB is a counted CodecError and the connection is closed, instead
    of the server settling down to wait for 134,217,728 bytes."""
    sched, sites, net = rig
    b = Recorder(sites[1])
    net.attach(b)
    with socket.create_connection(("127.0.0.1", net.port_of(b.address))) as s:
        s.sendall(struct.pack(">I", 128 * 1024 * 1024) + b"x" * 4096)
        with pytest.raises(CodecError, match="cap"):
            sched.run_until(lambda: False, timeout=2_000.0)  # 20 ms wall
        assert net.messages_dropped == 1
        sched.run_for(100.0)  # the close goes out
        s.settimeout(1.0)     # still open on the other side: times out
        try:
            assert s.recv(1) == b""
        except ConnectionResetError:
            pass  # closed all the same
    assert b.received == []
    assert conserve(net)


def test_hung_destination_queue_is_bounded(rig, monkeypatch):
    """A destination whose connect never completes: its queue stops at the
    bound, every overflow frame is dropped exactly once, conservation
    holds after every send, and close() cancels the resident sender."""
    bound = 4096
    sched, sites, net = rig
    a = Recorder(sites[0])
    b = Recorder(sites[1])
    net.attach(a)
    net.attach(b)
    net.connect_timeout_s = 60.0

    async def never_connects(*_endpoint):
        await asyncio.Event().wait()

    monkeypatch.setattr(asyncio, "open_connection", never_connects)
    for n in range(bound):
        a.send(b.address, Message(kind="x", payload={"n": n}))
        assert conserve(net)
    sched.run_for(100.0)  # the sender wakes up and hangs in its connect
    for n in range(50):
        a.send(b.address, Message(kind="x", payload={"n": bound + n}))
        assert conserve(net)
        assert not net._wire_quiet()
    assert net.messages_dropped == 50
    assert net.messages_in_flight == bound == asyncio_transport._PEER_QUEUE_FRAMES
    peer = net._peers[b.address]
    assert len(peer.frames) == bound
    assert not peer.task.done()
    net.close()
    sched.run_for(10.0)
    assert peer.task.cancelled()
    assert b.received == []


def test_frame_arrival_wakes_the_pump(slow_tick_rig):
    sched, sites, net = slow_tick_rig
    a = Recorder(sites[0])
    b = Recorder(sites[1])
    net.attach(a)
    net.attach(b)
    a.send(b.address, Message(kind="x", payload={}))
    started = time.monotonic()
    assert sched.run_until(lambda: b.received, timeout=60_000.0)
    assert time.monotonic() - started < 0.2  # polling would take >= 0.25


def test_transport_error_wakes_the_pump(slow_tick_rig):
    sched, sites, net = slow_tick_rig
    b = Recorder(sites[1])
    net.attach(b)
    with socket.create_connection(("127.0.0.1", net.port_of(b.address))) as s:
        s.sendall(frame(b"\xffnot a message"))
        started = time.monotonic()
        with pytest.raises(CodecError):
            sched.run_until(lambda: False, timeout=60_000.0)
        assert time.monotonic() - started < 0.2


def test_run_does_not_return_while_a_frame_is_in_flight(rig):
    """Quiescence still waits for the wire: ``run()`` returns only after
    the ping *and* the pong it provokes have landed."""
    sched, sites, net = rig
    a = Recorder(sites[0])
    b = Echo(sites[1])
    net.attach(a)
    net.attach(b)
    a.send(b.address, Message(kind="ping", payload={"n": 1}))
    sched.run()
    assert [m.kind for m in a.received] == ["pong"]
    assert net.messages_in_flight == 0 and net._wire_quiet()


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
