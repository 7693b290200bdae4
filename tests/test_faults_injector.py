"""Unit tests for the deterministic fault injector and its schedules."""

import random
from collections import Counter

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.faults import FaultEvent, FaultInjector, FaultSchedule, MessageRule, protocol_kind
from repro.net.message import Message
from repro.net.network import FaultDecision
from repro.query.options import QueryOptions


def build_plane(seed=11, **overrides):
    kwargs = dict(seed=seed, synthetic_sites=3, nodes_per_site=4, jitter=False,
                  maintenance_interval_ms=500.0)
    kwargs.update(overrides)
    plane = RBay(RBayConfig(**kwargs)).build()
    plane.sim.run()
    return plane


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
class TestFaultSchedule:
    def test_events_kept_sorted(self):
        schedule = FaultSchedule().crash(1, 500.0).crash(0, 100.0)
        assert [e.at_ms for e in schedule] == [100.0, 500.0]

    def test_crash_requires_recover_after(self):
        with pytest.raises(ValueError):
            FaultSchedule().crash(0, 200.0, recover_at_ms=200.0)

    def test_partition_requires_positive_window(self):
        with pytest.raises(ValueError):
            FaultSchedule().partition("A", "B", 300.0, 300.0)

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "meltdown")

    def test_json_round_trip(self):
        schedule = (FaultSchedule()
                    .crash(2, 100.0, recover_at_ms=900.0)
                    .partition("Site000", "Site001", 200.0, 700.0)
                    .rule(MessageRule(name="lossy", drop_prob=0.5,
                                      kind_prefix="direct/scribe"),
                          50.0, 850.0))
        restored = FaultSchedule.from_json(schedule.to_json())
        assert restored.describe() == schedule.describe()
        assert len(restored) == len(schedule)

    def test_randomized_always_heals_within_horizon(self):
        rng = random.Random(42)
        schedule = FaultSchedule.randomized(
            rng, duration_ms=10_000.0, node_count=30, crash_fraction=0.5,
            site_names=("A", "B", "C"), partitions=2, drop_prob=0.1)
        crashes = {e.node for e in schedule if e.action == "crash"}
        recovers = {e.node for e in schedule if e.action == "recover"}
        assert crashes and crashes == recovers
        starts = sum(1 for e in schedule if e.action == "partition_start")
        ends = sum(1 for e in schedule if e.action == "partition_end")
        assert starts == ends
        assert all(e.at_ms < 10_000.0 for e in schedule)

    def test_randomized_is_seed_deterministic(self):
        make = lambda: FaultSchedule.randomized(
            random.Random(7), duration_ms=5_000.0, node_count=20,
            site_names=("A", "B"), partitions=1, drop_prob=0.2)
        assert make().describe() == make().describe()


def test_protocol_kind_classifies_wire_messages():
    routed = Message(kind="pastry.route",
                     payload={"app": "scribe", "data": {"op": "join"}})
    direct = Message(kind="pastry.direct",
                     payload={"app": "query", "kind": "site_result", "data": {}})
    other = Message(kind="pastry.ping")
    assert protocol_kind(routed) == "route/scribe/join"
    assert protocol_kind(direct) == "direct/query/site_result"
    assert protocol_kind(other) == "pastry.ping"


# ----------------------------------------------------------------------
# Injection against a live plane
# ----------------------------------------------------------------------
class TestCrashRecover:
    def test_crash_detaches_and_recover_restores(self):
        plane = build_plane()
        injector = plane.install_faults()
        node = plane.nodes[0]
        injector.crash_node(0)
        assert not plane.network.has_host(node.address)
        assert not node.alive
        assert 0 not in injector.live_indices
        injector.recover_node(0)
        assert plane.network.has_host(node.address)
        assert node.alive
        assert plane.counters.get("faults.crash") == 1
        assert plane.counters.get("faults.recover") == 1

    def test_crash_and_recover_are_idempotent(self):
        plane = build_plane()
        injector = plane.install_faults()
        injector.crash_node(1)
        injector.crash_node(1)
        assert plane.counters.get("faults.crash") == 1
        injector.recover_node(1)
        injector.recover_node(1)
        assert plane.counters.get("faults.recover") == 1

    def test_crash_pauses_maintenance_and_recover_resumes_it(self):
        plane = build_plane()
        plane.start_maintenance()
        injector = plane.install_faults()
        node = plane.nodes[2]
        injector.crash_node(2)
        assert node._maintenance_task is None
        injector.recover_node(2)
        assert node._maintenance_task is not None
        assert not node._maintenance_task.stopped
        assert node._maintenance_task.interval == 500.0

    def test_crashed_node_sends_nothing(self):
        plane = build_plane()
        injector = plane.install_faults()
        node = plane.nodes[0]
        injector.crash_node(0)
        before = plane.network.messages_sent
        node.send_app(plane.nodes[1].address, "scribe",
                      "leave", {"topic": "t"})
        assert plane.network.messages_sent == before
        assert plane.network.messages_suppressed >= 1

    def test_churn_tracker_follows_crash_cycle(self):
        plane = build_plane()
        injector = plane.install_faults()
        address = plane.nodes[3].address
        injector.crash_node(3)
        assert not plane.churn.history(address).is_up()
        plane.sim.run(until=plane.sim.now + 100.0)
        injector.recover_node(3)
        history = plane.churn.history(address)
        assert history.is_up()
        assert history.last_up == plane.sim.now


class TestPartitionsAndRules:
    def test_partition_drops_cross_site_traffic_until_healed(self):
        plane = build_plane()
        injector = plane.install_faults()
        a = plane.site_nodes("Site000")[0]
        b = plane.site_nodes("Site001")[0]
        injector.start_partition("Site000", "Site001")
        dropped_before = plane.network.messages_dropped
        a.send_app(b.address, "scribe", "leave", {"topic": "t"})
        plane.sim.run()
        assert plane.network.messages_dropped == dropped_before + 1
        assert plane.counters.get("faults.partition_drop") == 1
        injector.end_partition("Site000", "Site001")
        received = plane.network.per_host_received[b.address]
        a.send_app(b.address, "scribe", "leave", {"topic": "t"})
        plane.sim.run()
        assert plane.network.per_host_received[b.address] == received + 1

    def test_partition_leaves_intra_site_traffic_alone(self):
        plane = build_plane()
        injector = plane.install_faults()
        injector.start_partition("Site000", "Site001")
        a, b = plane.site_nodes("Site000")[:2]
        received = plane.network.per_host_received[b.address]
        a.send_app(b.address, "scribe", "leave", {"topic": "t"})
        plane.sim.run()
        assert plane.network.per_host_received[b.address] == received + 1

    def test_rule_drop_matches_kind_prefix_only(self):
        plane = build_plane()
        injector = plane.install_faults()
        injector.start_rule(MessageRule(name="cut-scribe", drop_prob=1.0,
                                        kind_prefix="direct/scribe"))
        a, b = plane.site_nodes("Site000")[:2]
        dropped = plane.network.messages_dropped
        a.send_app(b.address, "scribe", "leave", {"topic": "t"})
        plane.sim.run()
        assert plane.network.messages_dropped == dropped + 1
        received = plane.network.per_host_received[b.address]
        a.send_app(b.address, "query", "release", {"query_id": 1})
        plane.sim.run()
        assert plane.network.per_host_received[b.address] == received + 1

    def test_rule_duplicate_delivers_twice(self):
        plane = build_plane()
        injector = plane.install_faults()
        injector.start_rule(MessageRule(name="dup", duplicate_prob=1.0,
                                        kind_prefix="direct/query"))
        a, b = plane.site_nodes("Site000")[:2]
        received = plane.network.per_host_received[b.address]
        a.send_app(b.address, "query", "release", {"query_id": 9})
        plane.sim.run()
        assert plane.network.per_host_received[b.address] == received + 2
        assert plane.counters.get("faults.msg_duplicated") == 1

    def test_rule_end_restores_delivery(self):
        plane = build_plane()
        injector = plane.install_faults()
        rule = MessageRule(name="cut", drop_prob=1.0)
        injector.start_rule(rule)
        injector.end_rule(rule)
        a, b = plane.site_nodes("Site000")[:2]
        received = plane.network.per_host_received[b.address]
        a.send_app(b.address, "scribe", "leave", {"topic": "t"})
        plane.sim.run()
        assert plane.network.per_host_received[b.address] == received + 1


class TestScheduledExecution:
    def test_schedule_fires_on_the_sim_clock(self):
        plane = build_plane()
        schedule = FaultSchedule().crash(0, plane.sim.now + 250.0,
                                         recover_at_ms=plane.sim.now + 750.0)
        injector = plane.install_faults(schedule)
        node = plane.nodes[0]
        plane.sim.run(until=plane.sim.now + 500.0)
        assert not plane.network.has_host(node.address)
        plane.sim.run(until=plane.sim.now + 500.0)
        assert plane.network.has_host(node.address)
        assert len(injector.trace) == 2

    def test_config_fault_schedule_installs_at_build(self):
        schedule = FaultSchedule().crash(1, 10_000.0)
        plane = build_plane(fault_schedule=schedule)
        assert plane.fault_injector is not None
        assert plane.network.fault_filter == plane.fault_injector.on_send

    def test_identical_seeds_yield_identical_traces(self):
        def run_once():
            plane = build_plane(seed=23)
            schedule = FaultSchedule.randomized(
                random.Random(5), duration_ms=4_000.0,
                node_count=len(plane.nodes), crash_fraction=0.4,
                site_names=[s.name for s in plane.registry], partitions=1,
                drop_prob=0.2)
            injector = plane.install_faults(schedule)
            plane.start_maintenance()
            plane.sim.run(until=plane.sim.now + 5_000.0)
            return injector.trace_text(), plane.network.messages_sent

        first_trace, first_sent = run_once()
        second_trace, second_sent = run_once()
        assert first_trace == second_trace
        assert first_sent == second_sent

    def test_conservation_holds_under_chaos(self):
        plane = build_plane(seed=31)
        schedule = FaultSchedule.randomized(
            random.Random(3), duration_ms=4_000.0,
            node_count=len(plane.nodes), crash_fraction=0.5,
            site_names=[s.name for s in plane.registry], partitions=2,
            drop_prob=0.3, duplicate_prob=0.2)
        plane.install_faults(schedule)
        plane.start_maintenance()
        plane.sim.run(until=plane.sim.now + 6_000.0)
        plane.stop_maintenance()
        plane.sim.run()
        net = plane.network
        assert net.messages_in_flight == 0
        assert net.messages_sent == net.messages_delivered + net.messages_dropped


# ----------------------------------------------------------------------
# Query-step retries under targeted loss (the executor's one retry loop)
# ----------------------------------------------------------------------
class TestStepRetriesUnderLoss:
    """MessageRule matches on kind only; these need to tell trees apart,
    so they hang a topic-aware filter on the network's fault hook."""

    @staticmethod
    def bucketed_site():
        plane = build_plane(synthetic_sites=1, nodes_per_site=12,
                            site_retries=4)
        for i, node in enumerate(plane.nodes):
            node.define_attribute("CPU_utilization", 5.0 + 7.5 * i)
        plane.register_buckets("CPU_utilization", 0.0, 100.0, buckets=2)
        plane.sim.run()
        return plane

    def test_anycast_retry_keeps_the_per_query_budget(self):
        """Regression: the scheduled anycast retry re-entered the chain
        without the query's ``retries`` override, so every later tree fell
        back to the plane-wide ``site_retries``."""
        plane = self.bucketed_site()
        scribe = plane.nodes[0].scribe
        attempts = Counter()
        real_anycast = scribe.anycast

        def counting_anycast(node, topic, *args, **kwargs):
            attempts[topic] += 1
            return real_anycast(node, topic, *args, **kwargs)

        scribe.anycast = counting_anycast
        walked = Counter()

        def lose_anycasts(src, dst, msg):
            if protocol_kind(msg) not in ("route/scribe/anycast",
                                          "direct/scribe/anycast_walk"):
                return None
            topic = msg.payload["data"]["topic"]
            walked[topic] += 1
            first_tree = next(iter(attempts))
            if topic == first_tree and walked[topic] > 1:
                return None  # tree 1 loses only its first message
            return FaultDecision(drop=True)  # tree 2 loses every one

        plane.network.fault_filter = lose_anycasts
        plane.query("SELECT * FROM Site000 WHERE CPU_utilization < 100;",
                    options=QueryOptions(retries=1))
        plane.sim.run()  # the chain outlives the coordinator's deadline
        tree_1, tree_2 = attempts
        assert attempts[tree_1] == 2   # lost once, retried, answered
        assert attempts[tree_2] == 2   # 1 + retries=1, not 1 + site_retries=4
        assert plane.counters.get("query.retry.anycast") == 2

    def test_probe_retries_reach_the_result(self):
        """Regression: probe-round retries bumped ``query.retry.probe`` but
        never ``QueryResult.retries``."""
        plane = self.bucketed_site()
        lost = []

        def lose_first_probe(src, dst, msg):
            if protocol_kind(msg) == "route/scribe/agg_get" and not lost:
                lost.append(msg)
                return FaultDecision(drop=True)
            return None

        plane.network.fault_filter = lose_first_probe
        result = plane.query(
            "SELECT * FROM Site000 WHERE CPU_utilization < 40;")
        assert lost and result.satisfied and result.entries
        assert result.retries == plane.counters.get("query.retry.probe") == 1
