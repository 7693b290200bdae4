"""Transport conformance: the DES network and the live sockets agree.

Membership, send-side admission, receive-side arrival and the
conservation counters are implemented once, on
``repro.transport.base.Transport``; the two backends add only carriage.
This suite drives *both* backends through the ``Transport`` surface only
and re-asserts ``sent == delivered + dropped + in_flight`` after every
step, so a backend that starts overriding (or bypassing) the shared
behaviour fails here before it can skew the sim-as-oracle verdict.

Carriage stays in the per-backend files: ``tests/test_net_network.py``
(latency, coalescing, ``wire_check``) and
``tests/test_transport_asyncio.py`` (sockets, ports, cut/heal, codec
errors, partitioned mode).
"""

import pytest

from repro.net.latency import UniformLatencyModel, make_ec2_registry
from repro.net.message import Message
from repro.net.network import FaultDecision, Host, Network, NetworkError
from repro.sim import Simulator
from repro.transport import AsyncioTransport, RealtimeScheduler, Transport

#: Everything the base defines once; a backend that re-declares one of
#: these has forked behaviour the oracle assumes is shared.  Admission,
#: ``send``, is bound in every backend's own class (the per-layer tracer
#: wraps it there) and must be the base's function itself.
SHARED = ("attach", "detach", "reattach", "host", "has_host", "host_count",
          "hosts", "set_delivery_hook", "_arrive", "_dispatch")


class Recorder(Host):
    def __init__(self, site):
        super().__init__(site)
        self.received = []

    def on_message(self, msg):
        self.received.append((msg, self.network.sim.now))


class Rig:
    """One engine, the transport under test, and any extra transports a
    case builds on the same engine (a foreign one, say)."""

    def __init__(self, engine, factory):
        self.engine = engine
        self.sites = list(make_ec2_registry())
        self._factory = factory
        self._made = []
        self.net = self.make()

    def make(self, **kwargs):
        net = self._factory(self.engine, **kwargs)
        self._made.append(net)
        return net

    def pair(self, net=None):
        net = net if net is not None else self.net
        hosts = [Recorder(self.sites[0]), Recorder(self.sites[1])]
        for host in hosts:
            net.attach(host)
        self.conserved(net)
        return hosts

    def conserved(self, net=None):
        net = net if net is not None else self.net
        assert net.messages_in_flight >= 0
        assert net.messages_sent == (net.messages_delivered
                                     + net.messages_dropped
                                     + net.messages_in_flight)

    def settle(self, net=None):
        """Drain to quiescence: nothing scheduled, nothing on the wire."""
        self.engine.run()
        net = net if net is not None else self.net
        assert net.messages_in_flight == 0
        self.conserved(net)

    def close(self):
        for net in self._made:
            net.close()
        self.engine.close()


def _sim_network(engine, **kwargs):
    return Network(engine, UniformLatencyModel(1.5), **kwargs)


def _live_transport(engine, **kwargs):
    return AsyncioTransport(engine, UniformLatencyModel(1.5),
                            connect_timeout_s=0.5, connect_retries=1,
                            connect_backoff_s=0.02, **kwargs)


@pytest.fixture(params=["sim", "asyncio"])
def rig(request):
    if request.param == "sim":
        rig = Rig(Simulator(), _sim_network)
    else:
        rig = Rig(RealtimeScheduler(time_scale=0.01, max_wall_s=60.0),
                  _live_transport)
    yield rig
    rig.close()


def ping(**payload):
    return Message(kind="ping", payload=payload)


def crash(net, host, how):
    if how == "detach":
        net.detach(host)
    else:
        host.alive = False  # flagged dead, still in the host table


def test_backend_adds_only_carriage(rig):
    assert isinstance(rig.net, Transport)
    redeclared = [name for name in SHARED if name in type(rig.net).__dict__]
    assert redeclared == []
    assert type(rig.net).send is Transport.send


# ----------------------------------------------------------------------
# Membership
# ----------------------------------------------------------------------
def test_attach_assigns_sequential_addresses(rig):
    a, b = Recorder(rig.sites[0]), Recorder(rig.sites[0])
    assert rig.net.attach(a) == 0
    assert rig.net.attach(b) == 1
    assert (a.address, b.address) == (0, 1)
    assert a.network is rig.net and a.alive


def test_membership_views(rig):
    net = rig.net
    a, b = rig.pair()
    assert net.host(a.address) is a and net.host(b.address) is b
    assert net.has_host(a.address) and net.has_host(b.address)
    assert net.host_count == 2
    assert set(net.hosts()) == {a, b}
    with pytest.raises(NetworkError):
        net.host(99)
    net.detach(b)
    assert not b.alive and not net.has_host(b.address)
    assert net.host_count == 1 and set(net.hosts()) == {a}
    with pytest.raises(NetworkError):
        net.host(b.address)
    rig.conserved()


# ----------------------------------------------------------------------
# Delivery and accounting
# ----------------------------------------------------------------------
def test_delivery_stamps_endpoints_and_counts_traffic(rig):
    net = rig.net
    a, b = rig.pair()
    for _ in range(3):
        a.send(b.address, ping(x=1))
        rig.conserved()
    rig.settle()
    assert [(m.kind, m.payload, m.src, m.dst) for m, _ in b.received] == [
        ("ping", {"x": 1}, a.address, b.address)] * 3
    assert net.messages_sent == net.messages_delivered == 3
    assert net.per_host_sent[a.address] == 3
    assert net.per_host_received[b.address] == 3
    assert net.per_host_bytes_in[b.address] == net.bytes_sent > 0
    net.reset_counters()
    assert net.messages_sent == net.messages_delivered == 0
    assert net.bytes_sent == 0
    assert net.per_host_sent[a.address] == 0
    assert net.per_host_received[b.address] == 0
    assert net.per_host_bytes_in[b.address] == 0
    rig.conserved()


def test_in_flight_gauge_tracks_pending_deliveries(rig):
    net = rig.net
    a, b = rig.pair()
    for sent in range(1, 5):
        a.send(b.address, ping())
        assert net.messages_in_flight == sent
        rig.conserved()
    rig.settle()
    assert net.messages_delivered == 4 and len(b.received) == 4


def test_reset_counters_preserves_in_flight(rig):
    net = rig.net
    a, b = rig.pair()
    a.send(b.address, ping())
    net.reset_counters()
    # The pending packet is still owed a delivery; the identity must
    # hold now and again once it lands.
    assert net.messages_sent == 1 and net.messages_in_flight == 1
    rig.conserved()
    rig.settle()
    assert net.messages_delivered == 1 and len(b.received) == 1


def test_delivery_hook_observes(rig):
    a, b = rig.pair()
    seen = []
    rig.net.set_delivery_hook(lambda msg: seen.append(msg.kind))
    a.send(b.address, ping())
    rig.settle()
    assert seen == ["ping"]
    rig.net.set_delivery_hook(None)
    a.send(b.address, ping())
    rig.settle()
    assert seen == ["ping"] and len(b.received) == 2


def test_trace_collects_path(rig):
    a, b = rig.pair()
    a.send(b.address, Message(kind="ping", trace=[]))
    rig.settle()
    (msg, _at), = b.received
    assert msg.trace == [b.address]


# ----------------------------------------------------------------------
# Admission: who may send, and to whom
# ----------------------------------------------------------------------
@pytest.mark.parametrize("gone", ["never-attached", "detached"])
def test_unknown_destination_dropped(rig, gone):
    net = rig.net
    a, b = rig.pair()
    dst = 1234
    if gone == "detached":
        net.detach(b)
        dst = b.address
    a.send(dst, ping())
    assert (net.messages_sent, net.messages_dropped,
            net.messages_in_flight) == (1, 1, 0)
    rig.settle()
    assert b.received == [] and net.messages_delivered == 0


@pytest.mark.parametrize("how", ["detach", "dead-flag"])
def test_crashed_sender_is_suppressed(rig, how):
    """Crashed senders emit nothing — outside the conservation sum."""
    net = rig.net
    a, b = rig.pair()
    crash(net, a, how)
    a.send(b.address, ping())
    rig.settle()
    assert net.messages_suppressed == 1
    assert net.messages_sent == 0 and net.messages_dropped == 0
    assert b.received == []


def test_recovered_sender_sends_again(rig):
    net = rig.net
    a, b = rig.pair()
    net.detach(a)
    net.reattach(a)
    a.send(b.address, ping())
    rig.settle()
    assert net.messages_suppressed == 0
    assert len(b.received) == 1


@pytest.mark.parametrize("how", ["detach", "dead-flag"])
def test_crash_mid_transit_dropped_exactly_once(rig, how):
    net = rig.net
    a, b = rig.pair()
    a.send(b.address, ping())
    assert net.messages_in_flight == 1
    crash(net, b, how)  # dies while the packet is on the wire
    rig.conserved()
    rig.settle()
    assert b.received == []
    assert (net.messages_sent, net.messages_delivered,
            net.messages_dropped) == (1, 0, 1)


class TestFaultFilter:
    def test_drop_decision_counts_dropped(self, rig):
        net = rig.net
        a, b = rig.pair()
        net.fault_filter = lambda src, dst, msg: FaultDecision(drop=True)
        a.send(b.address, ping())
        assert (net.messages_sent, net.messages_dropped,
                net.messages_in_flight) == (1, 1, 0)
        rig.settle()
        assert b.received == []

    def test_duplicates_are_extra_sent_packets(self, rig):
        net = rig.net
        a, b = rig.pair()
        net.fault_filter = lambda src, dst, msg: FaultDecision(duplicates=2)
        a.send(b.address, ping(x=1))
        assert net.messages_sent == net.messages_in_flight == 3
        rig.settle()
        assert len(b.received) == 3
        # Each copy is a wire packet: counted in sent, bytes, and per-host.
        assert net.messages_delivered == 3
        assert net.per_host_sent[a.address] == 3
        assert net.bytes_sent == net.per_host_bytes_in[b.address]

    def test_extra_delay_shifts_delivery(self, rig):
        a, b = rig.pair()
        seen = []

        def delay(src, dst, msg):
            seen.append((src, dst, msg.kind))
            return FaultDecision(extra_delay_ms=400.0)

        rig.net.fault_filter = delay
        sent_at = rig.engine.now
        a.send(b.address, ping())
        rig.settle()
        (_msg, at), = b.received
        assert at >= sent_at + 400.0
        assert seen == [(a, b, "ping")]  # the filter sees both host objects

    def test_none_decision_delivers_normally(self, rig):
        a, b = rig.pair()
        rig.net.fault_filter = lambda src, dst, msg: None
        a.send(b.address, ping())
        rig.settle()
        assert len(b.received) == 1
        assert rig.net.messages_dropped == 0


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------
class TestReattach:
    def test_reattach_restores_old_address(self, rig):
        net = rig.net
        a, b = rig.pair()
        address = b.address
        net.detach(b)
        net.reattach(b)
        assert b.address == address
        assert b.alive and net.host(address) is b
        a.send(address, ping())
        rig.settle()
        assert len(b.received) == 1

    def test_reattach_never_attached_rejected(self, rig):
        with pytest.raises(NetworkError):
            rig.net.reattach(Recorder(rig.sites[0]))

    def test_reattach_occupied_address_rejected(self, rig):
        squatter = Recorder(rig.sites[0])
        rig.make().attach(squatter)  # address 0, but on another transport
        a, _b = rig.pair()
        assert squatter.address == a.address
        with pytest.raises(NetworkError):
            rig.net.reattach(squatter)
        assert rig.net.host(a.address) is a

    def test_reattach_is_idempotent(self, rig):
        """Regression: the live twin used to re-bind an attached host's
        port on ``reattach`` and fail the next pump with EADDRINUSE."""
        net = rig.net
        a, b = rig.pair()
        net.reattach(b)  # never went down: nothing to recover
        rig.engine.run_for(50.0)
        net.detach(b)
        net.reattach(b)
        net.reattach(b)  # occupant is the host itself: fine
        b.alive = False
        net.reattach(b)  # flagged dead, still listening: just revive it
        assert b.alive and net.host(b.address) is b
        a.send(b.address, ping())
        rig.settle()
        assert len(b.received) == 1 and net.messages_dropped == 0
