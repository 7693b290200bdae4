"""Tests for the exposure-toggle policy and the processing-delay model."""

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.core.policies import exposure_policy
from repro.net.latency import UniformLatencyModel
from repro.net.message import Message
from repro.net.network import Host, Network


class TestExposurePolicy:
    @pytest.fixture
    def market(self):
        plane = RBay(RBayConfig(seed=777, nodes_per_site=8, jitter=False)).build()
        plane.sim.run()
        admin = plane.admin("Ireland")
        nodes = plane.site_nodes("Ireland")[:4]
        for node in nodes:
            admin.set_gate_policy(node, exposure_policy(node.node_id.value, exposed=True))
            admin.post_resource(node, "GPU", True)
        plane.sim.run()
        return plane, admin, nodes

    def query(self, plane, name="joe"):
        customer = plane.make_customer(name, "Ireland")
        result = customer.query_once("SELECT 4 FROM Ireland WHERE GPU = true;").result()
        customer.release_all(result)
        plane.sim.run()
        return result

    def test_exposed_nodes_visible(self, market):
        plane, admin, nodes = market
        assert len(self.query(plane).entries) == 4

    def test_hide_command_withdraws_instantly(self, market):
        plane, admin, nodes = market
        admin.broadcast_command(nodes[0], "GPU", "access", {"exposed": False})
        plane.sim.run()
        assert self.query(plane).entries == ()
        # Membership unchanged: the nodes are hidden, not unsubscribed.
        from repro.core.naming import site_tree

        assert plane.tree_size(site_tree("Ireland", "GPU"),
                               via=nodes[0]) == 4

    def test_re_expose_restores(self, market):
        plane, admin, nodes = market
        admin.broadcast_command(nodes[0], "GPU", "access", {"exposed": False})
        plane.sim.run()
        admin.broadcast_command(nodes[0], "GPU", "access", {"exposed": True})
        plane.sim.run()
        assert len(self.query(plane).entries) == 4

    def test_initially_hidden_gate(self):
        from repro.aa.runtime import AARuntime

        gate = AARuntime().define("access", 0, exposure_policy(5, exposed=False))
        assert gate.invoke("onGet", ("joe", {})) is None
        gate.invoke("onDeliver", ("admin", {"exposed": True}))
        assert gate.invoke("onGet", ("joe", {})) == 5


class TestProcessingDelay:
    class Echo(Host):
        def __init__(self, site, log, sim):
            super().__init__(site)
            self.log = log
            self.sim = sim

        def on_message(self, msg):
            self.log.append(self.sim.now)

    def test_processing_delay_added_per_hop(self, sim, registry):
        log = []
        network = Network(sim, UniformLatencyModel(1.0), processing_ms=2.5)
        a = self.Echo(registry[0], log, sim)
        b = self.Echo(registry[0], log, sim)
        network.attach(a), network.attach(b)
        a.send(b.address, Message(kind="ping"))
        sim.run()
        assert log == [3.5]

    def test_plane_config_plumbs_processing_delay(self):
        plane = RBay(RBayConfig(seed=778, nodes_per_site=6, jitter=False,
                                processing_delay_ms=2.0)).build()
        plane.sim.run()
        admin = plane.admin("Virginia")
        node = plane.site_nodes("Virginia")[0]
        admin.post_resource(node, "GPU", True)
        plane.sim.run()
        customer = plane.make_customer("joe", "Virginia")
        result = customer.query_once("SELECT 1 FROM Virginia WHERE GPU = true;").result()
        assert result.satisfied
        # Several protocol hops at >= 2 ms each: well above the pure-network
        # sub-millisecond local latency.
        assert result.latency_ms > 6.0

    def test_processing_delay_brings_local_latency_toward_paper(self):
        """With ~2 ms host cost the local-site query latency lands in the
        tens-of-ms range — the right order of magnitude for the paper's
        <200 ms local measurements on 100:1-shared VMs."""
        from repro.workloads.generator import FederationWorkload, WorkloadSpec
        from repro.workloads.queries import QueryWorkload

        plane = RBay(RBayConfig(seed=779, nodes_per_site=12, jitter=False,
                                processing_delay_ms=2.0)).build()
        workload = FederationWorkload(plane, WorkloadSpec(password="pw")).apply()
        plane.sim.run()
        generator = QueryWorkload(plane.streams.stream("pd"),
                                  [s.name for s in plane.registry], k=1)
        customer = plane.make_customer("joe", "Virginia")
        latencies = []
        for sql, payload in generator.stream("Virginia", 1, 10):
            result = customer.query_once(sql, payload=payload).result()
            latencies.append(result.latency_ms)
        mean = sum(latencies) / len(latencies)
        assert 5.0 < mean < 200.0
