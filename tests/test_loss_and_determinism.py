"""Message loss resilience and whole-system determinism."""

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.faults import MessageRule
from repro.workloads.generator import FederationWorkload, WorkloadSpec
from repro.workloads.queries import QueryWorkload


class TestDeterminism:
    """Two planes with the same seed must behave identically — the property
    every experiment in benchmarks/ depends on."""

    def build_and_run(self, seed):
        plane = RBay(RBayConfig(seed=seed, nodes_per_site=10, jitter=True)).build()
        workload = FederationWorkload(plane, WorkloadSpec(password="pw")).apply()
        plane.sim.run()
        generator = QueryWorkload(plane.streams.stream("det"),
                                  [s.name for s in plane.registry], k=1)
        customer = plane.make_customer("det-user", "Virginia")
        outcomes = []
        for sql, payload in generator.stream("Virginia", 4, 12):
            result = customer.query_once(sql, payload=payload).result()
            outcomes.append((sql, result.satisfied, tuple(result.node_ids()),
                             round(result.latency_ms, 6)))
        return outcomes

    def test_identical_seeds_identical_outcomes(self):
        assert self.build_and_run(1234) == self.build_and_run(1234)

    def test_different_seeds_differ(self):
        a = self.build_and_run(1)
        b = self.build_and_run(2)
        assert a != b


def build_lossy(drop_prob, **config):
    """A built plane that loses every message with ``drop_prob`` — a
    fault rule started right after ``build()``, so the joins sent before
    the first ``sim.run()`` are exposed too (a scheduled ``rule_start``
    event would miss them).  Returns the rule so a test can end it."""
    plane = RBay(RBayConfig(jitter=False, **config)).build()
    rule = MessageRule(name="uniform-loss", drop_prob=drop_prob)
    plane.install_faults().start_rule(rule)
    return plane, rule


class TestLossResilience:
    @pytest.fixture
    def lossy_plane(self):
        plane, _ = build_lossy(0.02, seed=77, nodes_per_site=12)
        workload = FederationWorkload(plane, WorkloadSpec(password="pw")).apply()
        plane.sim.run()
        return plane, workload

    def test_network_actually_drops(self, lossy_plane):
        plane, _ = lossy_plane
        assert plane.network.messages_dropped > 0

    def test_queries_usually_succeed_under_light_loss(self, lossy_plane):
        plane, workload = lossy_plane
        counts = workload.site_instance_population("Virginia")
        itype = max(counts, key=counts.get)
        customer = plane.make_customer("lossy", "Virginia", max_attempts=5)
        wins = 0
        for _ in range(10):
            outcome = customer.request(
                f"SELECT 1 FROM Virginia WHERE instance_type = '{itype}';",
                payload={"password": "pw"},
            ).result()
            wins += outcome.satisfied
            if outcome.satisfied:
                customer.release_all(outcome.result)
                plane.sim.run()
        assert wins >= 8  # light loss, local site: the retry loop covers it

    def test_multi_site_query_completes_despite_drops(self, lossy_plane):
        plane, workload = lossy_plane
        counts = workload.instance_population()
        itype = max(counts, key=counts.get)
        customer = plane.make_customer("lossy2", "Singapore")
        result = customer.query_once(
            f"SELECT 2 FROM * WHERE instance_type = '{itype}';",
            payload={"password": "pw"},
        ).result()
        # The query resolves (timeouts bound lost sub-requests) even if a
        # site's answer was dropped.
        assert result.finished_at >= result.started_at

    def test_heavy_loss_still_terminates(self):
        plane, _ = build_lossy(0.25, seed=78, nodes_per_site=8)
        workload = FederationWorkload(plane, WorkloadSpec(password="pw")).apply()
        plane.sim.run()
        customer = plane.make_customer("storm", "Tokyo", max_attempts=2)
        outcome = customer.request(
            "SELECT 1 FROM * WHERE instance_type = 'c3.large';",
            payload={"password": "pw"},
        ).result()
        # No hang: the request resolved one way or the other.
        assert outcome.attempts >= 1

    def test_aggregates_converge_after_loss_stops(self):
        plane, rule = build_lossy(0.1, seed=79, nodes_per_site=10,
                                  maintenance_interval_ms=500.0)
        plane.sim.run()
        admin = plane.admin("Oregon")
        nodes = plane.site_nodes("Oregon")
        for node in nodes:
            admin.post_resource(node, "GPU", True)
        plane.sim.run()
        # Stop the loss, then let maintenance re-push aggregation state.
        plane.fault_injector.end_rule(rule)
        plane.start_maintenance()
        plane.settle(6_000.0)
        plane.stop_maintenance()
        from repro.core.naming import site_tree

        size = plane.tree_size(site_tree("Oregon", "GPU"), via=nodes[0], scope="site")
        assert size == len(nodes)
