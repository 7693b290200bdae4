"""Tests for churn tracking, prediction, and QoS-aware selection."""

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.ext.churn import ChurnPredictor, ChurnTracker
from repro.ext.crypto_auth import KeyPair, auth_payload, keyed_gate_policy, sign_challenge
from repro.ext.selection import QoSSelector, StabilityAwareCustomer
from repro.sim.engine import Simulator


@pytest.fixture
def tracker(sim):
    return ChurnTracker(sim)


class TestHistory:
    def test_fresh_node_has_full_uptime(self, sim, tracker):
        tracker.mark_up(1)
        sim.schedule(1_000.0, lambda: None)
        sim.run()
        assert tracker.history(1).uptime_ratio(sim.now) == pytest.approx(1.0)

    def test_downtime_reduces_ratio(self, sim, tracker):
        tracker.mark_up(1)
        sim.schedule(500.0, tracker.mark_down, 1)
        sim.schedule(1_000.0, lambda: None)
        sim.run()
        assert tracker.history(1).uptime_ratio(sim.now) == pytest.approx(0.5)

    def test_flap_counting(self, sim, tracker):
        tracker.mark_up(1)
        for t in (100.0, 300.0):
            sim.schedule(t, tracker.mark_down, 1)
            sim.schedule(t + 100.0, tracker.mark_up, 1)
        sim.run()
        assert tracker.history(1).flaps == 2

    def test_duplicate_marks_are_idempotent(self, sim, tracker):
        tracker.mark_up(1)
        tracker.mark_up(1)
        tracker.mark_down(1)
        tracker.mark_down(1)
        assert tracker.history(1).flaps == 1

    def test_lease_outcomes(self, tracker):
        tracker.record_lease_outcome(1, completed=True)
        tracker.record_lease_outcome(1, completed=False)
        history = tracker.history(1)
        assert history.lease_completions == 1
        assert history.lease_failures == 1

    def test_recovery_refreshes_last_up(self, sim, tracker):
        """Coming back up must stamp ``last_up`` with the recovery time —
        stability scoring reads it as 'seen alive this recently'."""
        tracker.mark_up(1)
        sim.schedule(400.0, tracker.mark_down, 1)
        sim.schedule(900.0, tracker.mark_up, 1)
        sim.schedule(2_000.0, lambda: None)
        sim.run()
        history = tracker.history(1)
        assert history.is_up()
        assert history.last_up == 900.0
        assert history.flaps == 1

    def test_observe_population(self, sim, tracker):
        class FakeNode:
            def __init__(self, address, alive):
                self.address = address
                self.alive = alive

        nodes = [FakeNode(1, True), FakeNode(2, False)]
        tracker.observe_population(nodes)
        assert tracker.history(1).is_up()
        nodes[0].alive = False
        tracker.observe_population(nodes)
        assert not tracker.history(1).is_up()
        assert tracker.history(1).flaps == 1


class TestPredictor:
    def test_unknown_node_gets_prior(self, tracker):
        predictor = ChurnPredictor(tracker, prior=0.4)
        assert predictor.stability(99) == 0.4

    def test_stable_node_scores_high(self, sim, tracker):
        tracker.mark_up(1)
        sim.schedule(10_000.0, lambda: None)
        sim.run()
        predictor = ChurnPredictor(tracker)
        assert predictor.stability(1) > 0.9

    def test_flappy_node_scores_low(self, sim, tracker):
        tracker.mark_up(1)
        tracker.mark_up(2)
        # Node 2 flaps every 100 ms for a while.
        for i in range(20):
            sim.schedule(100.0 * (2 * i + 1), tracker.mark_down, 2)
            sim.schedule(100.0 * (2 * i + 2), tracker.mark_up, 2)
        sim.schedule(10_000.0, lambda: None)
        sim.run()
        predictor = ChurnPredictor(tracker)
        assert predictor.stability(2) < predictor.stability(1)

    def test_broken_leases_reduce_score(self, sim, tracker):
        tracker.mark_up(1)
        tracker.mark_up(2)
        sim.schedule(10_000.0, lambda: None)
        sim.run()
        for _ in range(5):
            tracker.record_lease_outcome(1, completed=True)
            tracker.record_lease_outcome(2, completed=False)
        predictor = ChurnPredictor(tracker)
        assert predictor.stability(1) > predictor.stability(2)

    def test_scores_bounded(self, sim, tracker):
        tracker.mark_up(1)
        sim.run()
        predictor = ChurnPredictor(tracker)
        assert 0.0 <= predictor.stability(1) <= 1.0

    def test_rank_orders_by_stability(self, sim, tracker):
        tracker.mark_up(1)
        tracker.mark_up(2)
        sim.schedule(100.0, tracker.mark_down, 2)
        sim.schedule(5_000.0, lambda: None)
        sim.run()
        predictor = ChurnPredictor(tracker)
        assert predictor.rank([2, 1]) == [1, 2]


class TestQoSSelector:
    def make(self, sim, stabilities):
        tracker = ChurnTracker(sim)
        predictor = ChurnPredictor(tracker)
        predictor.stability = lambda address: stabilities.get(address, 0.5)
        return QoSSelector(predictor)

    def test_select_keeps_most_stable(self, sim):
        selector = self.make(sim, {1: 0.2, 2: 0.9, 3: 0.6})
        entries = [{"address": a} for a in (1, 2, 3)]
        kept, surplus = selector.select(entries, 2)
        assert [e["address"] for e in kept] == [2, 3]
        assert [e["address"] for e in surplus] == [1]

    def test_select_all_when_k_none(self, sim):
        selector = self.make(sim, {})
        entries = [{"address": a} for a in (1, 2)]
        kept, surplus = selector.select(entries, None)
        assert len(kept) == 2 and not surplus

    def test_blended_score_uses_order_value(self, sim):
        tracker = ChurnTracker(sim)
        selector = QoSSelector(ChurnPredictor(tracker), stability_weight=0.0)
        # With weight 0 the ranking is purely by order value (smaller better).
        entries = [{"address": 1, "order_value": 90.0},
                   {"address": 2, "order_value": 1.0}]
        kept, _ = selector.select(entries, 1)
        assert kept[0]["address"] == 2

    def test_invalid_weight_rejected(self, sim):
        with pytest.raises(ValueError):
            QoSSelector(ChurnPredictor(ChurnTracker(sim)), stability_weight=2.0)

    def test_negative_k_rejected(self, sim):
        # Regression: ordered[:k] with k < 0 silently kept all-but-|k|
        # entries instead of failing — a caller bug (e.g. a miscomputed
        # over-ask) looked like a successful partial selection.
        selector = self.make(sim, {1: 0.2, 2: 0.9, 3: 0.6})
        entries = [{"address": a} for a in (1, 2, 3)]
        with pytest.raises(ValueError, match="k must be >= 0"):
            selector.select(entries, -1)

    def test_zero_k_keeps_nothing(self, sim):
        selector = self.make(sim, {1: 0.2, 2: 0.9})
        entries = [{"address": a} for a in (1, 2)]
        kept, surplus = selector.select(entries, 0)
        assert kept == [] and len(surplus) == 2


class TestStabilityAwareCustomer:
    @pytest.fixture
    def plane(self):
        plane = RBay(RBayConfig(seed=71, nodes_per_site=12, jitter=False)).build()
        plane.sim.run()
        admin = plane.admin("Virginia")
        for node in plane.site_nodes("Virginia")[:8]:
            admin.post_resource(node, "GPU", True)
        plane.sim.run()
        return plane

    def test_keeps_k_most_stable_and_releases_rest(self, plane):
        tracker = ChurnTracker(plane.sim)
        predictor = ChurnPredictor(tracker)
        gpu_nodes = [n for n in plane.site_nodes("Virginia") if n.has_attribute("GPU")]
        # Give every GPU node history; make two of them flappy.
        for node in gpu_nodes:
            tracker.mark_up(node.address)
        flappy = {gpu_nodes[0].address, gpu_nodes[1].address}
        for address in flappy:
            for i in range(10):
                plane.sim.schedule(10.0 * (2 * i + 1), tracker.mark_down, address)
                plane.sim.schedule(10.0 * (2 * i + 2), tracker.mark_up, address)
        plane.settle(60_000.0)

        customer = StabilityAwareCustomer(
            "joe", plane.site_nodes("Virginia")[0],
            plane.streams.stream("qos"), QoSSelector(predictor), overask=3.0,
        )
        result = customer.query_stable(
            "SELECT 2 FROM Virginia WHERE GPU = true;").result()
        assert result.satisfied and len(result.entries) == 2
        chosen = {entry["address"] for entry in result.entries}
        assert not (chosen & flappy)  # flappy nodes were ranked out
        plane.sim.run()
        # Surplus reservations were released.
        held = [n for n in gpu_nodes if not n.reservation.is_free()]
        assert len(held) == 2

    def test_invalid_overask_rejected(self, plane):
        tracker = ChurnTracker(plane.sim)
        with pytest.raises(ValueError):
            StabilityAwareCustomer(
                "x", plane.nodes[0], plane.streams.stream("x"),
                QoSSelector(ChurnPredictor(tracker)), overask=0.5,
            )


class TestCryptoAuth:
    def test_sign_is_deterministic_and_keyed(self):
        alice = KeyPair.generate("alice", seed="s1")
        bob = KeyPair.generate("bob", seed="s1")
        assert sign_challenge(alice, "c") == sign_challenge(alice, "c")
        assert sign_challenge(alice, "c") != sign_challenge(bob, "c")
        assert sign_challenge(alice, "c1") != sign_challenge(alice, "c2")

    def test_gate_accepts_valid_tag(self):
        from repro.aa.runtime import AARuntime

        alice = KeyPair.generate("alice", seed="s1")
        gate = AARuntime().define("access", 0,
                                  keyed_gate_policy(7, "node-7-challenge", [alice]))
        payload = auth_payload(alice, "node-7-challenge")
        assert gate.invoke("onGet", ("alice", payload)) == 7

    def test_gate_rejects_wrong_key(self):
        from repro.aa.runtime import AARuntime

        alice = KeyPair.generate("alice", seed="s1")
        mallory = KeyPair.generate("alice", seed="attacker")  # forged identity
        gate = AARuntime().define("access", 0,
                                  keyed_gate_policy(7, "node-7-challenge", [alice]))
        payload = auth_payload(mallory, "node-7-challenge")
        assert gate.invoke("onGet", ("alice", payload)) is None

    def test_tag_does_not_replay_across_nodes(self):
        from repro.aa.runtime import AARuntime

        alice = KeyPair.generate("alice", seed="s1")
        gate_a = AARuntime().define("access", 0,
                                    keyed_gate_policy(1, "challenge-A", [alice]))
        gate_b = AARuntime().define("access", 0,
                                    keyed_gate_policy(2, "challenge-B", [alice]))
        payload_for_a = auth_payload(alice, "challenge-A")
        assert gate_a.invoke("onGet", ("alice", payload_for_a)) == 1
        assert gate_b.invoke("onGet", ("alice", payload_for_a)) is None

    def test_unknown_principal_rejected(self):
        from repro.aa.runtime import AARuntime

        alice = KeyPair.generate("alice", seed="s1")
        eve = KeyPair.generate("eve", seed="s2")
        gate = AARuntime().define("access", 0,
                                  keyed_gate_policy(7, "ch", [alice]))
        assert gate.invoke("onGet", ("eve", auth_payload(eve, "ch"))) is None

    def test_missing_payload_fields_rejected(self):
        from repro.aa.runtime import AARuntime

        alice = KeyPair.generate("alice", seed="s1")
        gate = AARuntime().define("access", 0,
                                  keyed_gate_policy(7, "ch", [alice]))
        assert gate.invoke("onGet", ("alice", None)) is None
        assert gate.invoke("onGet", ("alice", {})) is None
        assert gate.invoke("onGet", ("alice", {"principal": "alice"})) is None

    def test_end_to_end_query_with_keyed_gate(self):
        plane = RBay(RBayConfig(seed=72, nodes_per_site=8, jitter=False)).build()
        plane.sim.run()
        admin = plane.admin("Tokyo")
        alice = KeyPair.generate("alice", seed="fed")
        node = plane.site_nodes("Tokyo")[0]
        challenge = f"node-{node.node_id.hex()[:8]}"
        admin.set_gate_policy(node, keyed_gate_policy(
            node.node_id.value, challenge, [alice]))
        admin.post_resource(node, "TPU", True)
        plane.sim.run()
        customer = plane.make_customer("alice", "Tokyo")
        good = customer.query_once("SELECT 1 FROM Tokyo WHERE TPU = true;",
                                   payload=auth_payload(alice, challenge)).result()
        assert good.satisfied
        customer.release_all(good)
        plane.sim.run()
        eve = KeyPair.generate("eve", seed="evil")
        bad = customer.query_once("SELECT 1 FROM Tokyo WHERE TPU = true;",
                                  payload=auth_payload(eve, challenge)).result()
        assert not bad.entries
