"""Wire-safety audit: every message the protocol stack sends must
survive the codec.

``Network(wire_check=True)`` round-trips every delivery through the
wire codec, so a dressed DES run doubles as an exhaustive serializability
audit of the real protocol traffic.  The REQUIRED set below enumerates
the message kinds a dressed federation is known to put on the wire; if a
new protocol message appears it must either show up here (proving it
crossed the codec) or fail loudly with a :class:`CodecError` naming the
offending field.
"""

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.net.message import Message
from repro.net.network import Host, Network
from repro.net.site import SiteRegistry
from repro.sim.engine import Simulator
from repro.transport.codec import CodecError
from repro.workloads.generator import FederationWorkload, WorkloadSpec
from tests.conftest import registered_wire_kinds

# Message kinds a dressed 4-site federation demonstrably sends.  Keep in
# sync with the protocol stack: a kind disappearing from this run means
# the audit lost coverage of it.
REQUIRED_WIRE_KINDS = {
    "direct/query/site_query",
    "direct/query/site_result",
    "direct/scribe/agg_push_batch",
    "direct/scribe/agg_value",
    "direct/scribe/child_probe",
    "direct/scribe/parent_set",
    "pastry.ls_rep",
    "pastry.ls_req",
    "route/scribe/agg_get",
    "route/scribe/join",
}


def run_dressed(wire_check):
    plane = RBay(RBayConfig(
        seed=2017, synthetic_sites=4, nodes_per_site=3,
        jitter=False, wire_check=wire_check,
    )).build()
    FederationWorkload(plane, WorkloadSpec(password="rbay")).apply()
    plane.register_buckets("CPU_utilization", 0.0, 100.0, buckets=4)
    plane.sim.run()
    plane.start_maintenance()  # periodic probes/leaf-set exchanges
    plane.settle(5_000.0)
    result = plane.query("SELECT * FROM * GROUP BY CPU_utilization;")
    plane.settle(1_000.0)  # sim.run() never quiesces under maintenance
    return plane, result


def test_every_protocol_kind_crosses_the_codec():
    plane, result = run_dressed(wire_check=True)
    net = plane.network
    assert result.satisfied
    assert net.wire_checked == net.messages_delivered > 0
    missing = REQUIRED_WIRE_KINDS - net.wire_kinds_seen
    assert not missing, f"kinds never audited through the codec: {missing}"
    # One list of kinds: everything the audit requires, and every
    # application kind that actually crossed the wire, is a registered one
    # (docs/protocol.md "Wire kinds" mirrors the same tables).
    registered = set(registered_wire_kinds())
    assert {k for k in REQUIRED_WIRE_KINDS if "/" in k} <= registered
    unregistered = {k for k in net.wire_kinds_seen
                    if k.startswith(("direct/scribe/", "direct/query/",
                                     "route/scribe/"))} - registered
    assert not unregistered, f"kinds on the wire with no handler: {unregistered}"


def test_wire_check_is_behaviorally_invisible():
    plane_a, result_a = run_dressed(wire_check=False)
    plane_b, result_b = run_dressed(wire_check=True)
    assert sorted(map(repr, result_a.entries)) == sorted(
        map(repr, result_b.entries))
    assert result_a.satisfied == result_b.satisfied
    assert plane_a.network.messages_delivered == \
        plane_b.network.messages_delivered
    assert plane_a.sim.events_executed == plane_b.sim.events_executed


def test_unserializable_payload_fails_loudly_under_wire_check():
    sim = Simulator()
    registry = SiteRegistry()
    registry.add("A", "r")
    registry.add("B", "r")
    sites = list(registry)
    net = Network(sim, wire_check=True)

    class Silent(Host):
        def on_message(self, msg):
            pass

    a = Silent(sites[0])
    b = Silent(sites[1])
    net.attach(a)
    net.attach(b)
    a.send(b.address, Message(kind="evil", payload={"fn": lambda: None}))
    with pytest.raises(CodecError, match="fn"):
        sim.run()
