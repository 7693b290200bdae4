"""Unit tests for the simulated network's carriage: model latency, exact
fault-delay arithmetic, message sizing, same-instant coalescing.

Membership, traffic counters, the delivery hook, conservation and the
fault-filter verdicts are backend-independent and run on both backends in
``tests/test_transport_conformance.py``."""

import pytest

from repro.net.latency import UniformLatencyModel
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


def test_send_requires_attachment(registry):
    host = Recorder(registry[0])
    with pytest.raises(NetworkError):
        host.send(0, Message(kind="ping"))


class TestFaultFilter:
    def test_extra_delay_shifts_delivery(self, sim, net, hosts):
        a, b = hosts
        net.fault_filter = lambda src, dst, msg: FaultDecision(extra_delay_ms=40.0)
        a.send(b.address, Message(kind="ping"))
        sim.run()
        _, at = b.received[0]
        assert at == pytest.approx(41.5)  # 1.5 model latency + 40 injected


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
