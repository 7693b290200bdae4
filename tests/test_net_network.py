"""Unit tests for the simulated network (crash recovery and sender
suppression run on both backends in ``tests/test_transport_conformance.py``)."""

import pytest

from repro.net.latency import UniformLatencyModel, make_ec2_registry
from repro.net.message import Message
from repro.net.network import FaultDecision, Host, Network, NetworkError


class Recorder(Host):
    def __init__(self, site):
        super().__init__(site)
        self.received = []

    def on_message(self, msg):
        self.received.append((msg, self.network.sim.now))


@pytest.fixture
def net(sim):
    return Network(sim, UniformLatencyModel(1.5))


@pytest.fixture
def hosts(net, registry):
    pair = [Recorder(registry[0]), Recorder(registry[1])]
    for host in pair:
        net.attach(host)
    return pair


def test_delivery_with_model_latency(sim, net, hosts):
    a, b = hosts
    a.send(b.address, Message(kind="ping"))
    sim.run()
    assert len(b.received) == 1
    _, at = b.received[0]
    assert at == 1.5


def test_traffic_counters(sim, net, hosts):
    a, b = hosts
    for _ in range(3):
        a.send(b.address, Message(kind="ping", payload={"x": 1}))
    sim.run()
    assert net.messages_sent == 3
    assert net.messages_delivered == 3
    assert net.per_host_sent[a.address] == 3
    assert net.per_host_received[b.address] == 3
    assert net.per_host_bytes_in[b.address] > 0
    net.reset_counters()
    assert net.messages_sent == 0
    assert net.per_host_received[b.address] == 0


def test_delivery_hook_observes(sim, net, hosts):
    a, b = hosts
    seen = []
    net.set_delivery_hook(lambda m: seen.append(m.kind))
    a.send(b.address, Message(kind="ping"))
    sim.run()
    assert seen == ["ping"]


def test_trace_collects_path(sim, net, hosts):
    a, b = hosts
    msg = Message(kind="ping", trace=[])
    a.send(b.address, msg)
    sim.run()
    assert msg.trace == [b.address]


def test_send_requires_attachment(registry):
    host = Recorder(registry[0])
    with pytest.raises(NetworkError):
        host.send(0, Message(kind="ping"))


def test_host_count(net, hosts):
    assert net.host_count == 2


class TestConservation:
    """sent == delivered + dropped + in_flight, at every instant."""

    def assert_conserved(self, net):
        assert net.messages_sent == (net.messages_delivered
                                     + net.messages_dropped
                                     + net.messages_in_flight)

    def test_in_flight_gauge_tracks_pending_deliveries(self, sim, net, hosts):
        a, b = hosts
        for _ in range(4):
            a.send(b.address, Message(kind="ping"))
        assert net.messages_in_flight == 4
        self.assert_conserved(net)
        sim.run()
        assert net.messages_in_flight == 0
        assert net.messages_delivered == 4
        self.assert_conserved(net)

    def test_in_flight_to_crashed_host_counts_as_dropped(self, sim, net, hosts):
        a, b = hosts
        a.send(b.address, Message(kind="ping"))
        net.detach(b)  # crashes while the packet is on the wire
        sim.run()
        assert net.messages_dropped == 1
        assert net.messages_delivered == 0
        self.assert_conserved(net)

    def test_reset_counters_preserves_in_flight(self, sim, net, hosts):
        a, b = hosts
        a.send(b.address, Message(kind="ping"))
        net.reset_counters()
        # The pending packet is still owed a delivery; the identity must
        # hold again once it lands.
        assert net.messages_sent == 1 and net.messages_in_flight == 1
        sim.run()
        assert net.messages_delivered == 1
        self.assert_conserved(net)


class TestFaultFilter:
    def test_drop_decision_counts_dropped(self, sim, net, hosts):
        a, b = hosts
        net.fault_filter = lambda src, dst, msg: FaultDecision(drop=True)
        a.send(b.address, Message(kind="ping"))
        sim.run()
        assert b.received == []
        assert net.messages_sent == 1 and net.messages_dropped == 1
        assert net.messages_in_flight == 0

    def test_duplicates_are_extra_sent_packets(self, sim, net, hosts):
        a, b = hosts
        net.fault_filter = lambda src, dst, msg: FaultDecision(duplicates=2)
        a.send(b.address, Message(kind="ping", payload={"x": 1}))
        sim.run()
        assert len(b.received) == 3
        # Each copy is a wire packet: counted in sent, bytes, and per-host.
        assert net.messages_sent == 3
        assert net.messages_delivered == 3
        assert net.per_host_sent[a.address] == 3
        assert net.messages_sent == net.messages_delivered + net.messages_dropped

    def test_extra_delay_shifts_delivery(self, sim, net, hosts):
        a, b = hosts
        net.fault_filter = lambda src, dst, msg: FaultDecision(extra_delay_ms=40.0)
        a.send(b.address, Message(kind="ping"))
        sim.run()
        _, at = b.received[0]
        assert at == pytest.approx(41.5)  # 1.5 model latency + 40 injected

    def test_none_decision_delivers_normally(self, sim, net, hosts):
        a, b = hosts
        net.fault_filter = lambda src, dst, msg: None
        a.send(b.address, Message(kind="ping"))
        sim.run()
        assert len(b.received) == 1
        assert net.messages_dropped == 0


class TestMessage:
    def test_size_accounts_for_payload(self):
        small = Message(kind="a", payload={})
        big = Message(kind="a", payload={"data": "x" * 1000})
        assert big.size_bytes() > small.size_bytes() + 900

    def test_size_handles_nested_containers(self):
        msg = Message(kind="a", payload={"list": [1, 2, {"k": "v"}], "none": None})
        assert msg.size_bytes() > 0

    def test_unique_ids(self):
        assert Message(kind="a").msg_id != Message(kind="a").msg_id

    def test_fork_copies_payload_and_updates(self):
        original = Message(kind="k", payload={"a": 1}, hops=3)
        forked = original.fork(b=2)
        assert forked.payload == {"a": 1, "b": 2}
        assert forked.hops == 3
        assert forked.msg_id != original.msg_id
        assert original.payload == {"a": 1}


class TestDeliveryCoalescing:
    """Same-destination same-time deliveries share one simulator event."""

    def test_burst_collapses_to_one_event_same_deliveries(self, sim, net, hosts):
        a, b = hosts
        for i in range(5):
            a.send(b.address, Message(kind="ping", payload={"i": i}))
        assert len(net._pending_batches) == 1  # one (dst, time) batch
        events_before = sim.events_executed
        sim.run()
        # One delivery event carried all five messages, individually.
        assert sim.events_executed == events_before + 1
        assert [m.payload["i"] for m, _ in b.received] == [0, 1, 2, 3, 4]
        assert len({t for _, t in b.received}) == 1
        assert net.messages_delivered == 5
        assert not net._pending_batches

    def test_counters_conserved_under_coalescing(self, sim, net, hosts):
        a, b = hosts
        for _ in range(3):
            a.send(b.address, Message(kind="ping"))
        assert net.messages_in_flight == 3
        assert net.messages_sent == (net.messages_delivered
                                     + net.messages_dropped
                                     + net.messages_in_flight)
        sim.run()
        assert net.messages_in_flight == 0
        assert net.messages_delivered == 3
        assert net.messages_sent == net.messages_delivered

    def test_one_heap_event_per_burst_conserves_per_message(self, sim, net, registry):
        """Five same-instant sends to one host cost one heap event, yet the
        conservation identity holds at *every* message of the batch — even
        when a handler crashes the destination mid-batch."""
        src = Recorder(registry[0])
        seen = []

        class CrashesOnSecond(Host):
            def on_message(self, msg):
                seen.append((net.messages_delivered, net.messages_dropped,
                             net.messages_in_flight))
                assert net.messages_sent == (net.messages_delivered
                                             + net.messages_dropped
                                             + net.messages_in_flight)
                if len(seen) == 2:
                    net.detach(self)

        dst = CrashesOnSecond(registry[1])
        net.attach(src), net.attach(dst)
        for _ in range(5):
            src.send(dst.address, Message(kind="ping"))
        assert len(sim._heap) == 1
        events_before = sim.events_executed
        sim.run()
        assert sim.events_executed == events_before + 1
        assert seen == [(1, 0, 4), (2, 0, 3)]
        assert (net.messages_delivered, net.messages_dropped,
                net.messages_in_flight) == (2, 3, 0)
        assert net.messages_sent == 5

    def test_distinct_instants_do_not_coalesce(self, sim, net, hosts):
        a, b = hosts
        for i in range(4):
            a.send(b.address, Message(kind="ping", payload={"i": i}))
        sim.schedule(1.0, lambda: a.send(b.address, Message(kind="late")))
        sim.run()
        assert [(m.kind, m.payload, t) for m, t in b.received] == [
            ("ping", {"i": 0}, 1.5), ("ping", {"i": 1}, 1.5),
            ("ping", {"i": 2}, 1.5), ("ping", {"i": 3}, 1.5),
            ("late", {}, 2.5)]
