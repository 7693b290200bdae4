"""Hot-tree rebalancing: hysteresis trigger, replica protocol, diversion.

The unit half drives :class:`~repro.scribe.rebalance.Rebalancer` against
crafted topic states to pin the windowed-hysteresis decision rules; the
integration half builds a real overlay, heats one topic root, and checks
the full promote → divert → demote lifecycle keeps aggregates exact.
"""

import pytest

from repro.net.latency import UniformLatencyModel, make_ec2_registry
from repro.net.network import Network
from repro.pastry.overlay import Overlay
from repro.scribe.rebalance import RebalanceConfig, Rebalancer
from repro.scribe.scribe import ScribeApplication, TopicState
from repro.scribe.topic import topic_id
from repro.sim.random_streams import RandomStreams

MEMBERS = 20

#: Aggressive knobs so a handful of test reads count as "hot".
CFG = RebalanceConfig(hot_threshold=5, cool_threshold=1, window_ms=100.0,
                      hot_windows=1, cool_windows=2, max_replicas=2,
                      min_children=2)


# ----------------------------------------------------------------------
# Unit: the windowed hysteresis trigger
# ----------------------------------------------------------------------
class FakeSim:
    def __init__(self):
        self.now = 0.0


class FakeScribe:
    """Just what the trigger reads off its scribe; promote/demote calls
    are recorded here instead of running the replica protocol."""

    def __init__(self, states):
        self.sim = FakeSim()
        self.direct_handlers = {}
        self._states = states
        self.promoted = []
        self.demoted = []

    def topics(self):
        return self._states


class TriggerOnly(Rebalancer):
    def _promote_replicas(self, node, state):
        self.scribe.promoted.append(state.topic)
        state.replicas = {999: None}
        return True

    def _demote_replicas(self, node, state):
        self.scribe.demoted.append(state.topic)
        state.replicas = {}


def root_state(topic="hot", children=2):
    state = TopicState(topic, topic_id(topic))
    state.is_root = True
    for i in range(children):
        state.children[100 + i] = None
    return state


def make_trigger(config, states):
    scribe = FakeScribe(states)
    rebalancer = TriggerOnly(scribe, config)
    rebalancer.tick(None)  # opens the first window
    return scribe.sim, scribe, rebalancer


def close_window(sim, scribe, rebalancer, load, topic="hot"):
    for _ in range(load):
        rebalancer.record(topic)
    sim.now += rebalancer.config.window_ms
    rebalancer.tick(None)


class TestHysteresis:
    CONFIG = RebalanceConfig(hot_threshold=10, cool_threshold=3,
                             window_ms=100.0, hot_windows=2, cool_windows=2,
                             max_replicas=2, min_children=2)

    def test_one_hot_window_is_not_enough(self):
        sim, scribe, reb = make_trigger(self.CONFIG, {"hot": root_state()})
        close_window(sim, scribe, reb, load=50)
        assert scribe.promoted == []
        assert reb.streaks("hot")["hot"] == 1

    def test_consecutive_hot_windows_promote_once(self):
        sim, scribe, reb = make_trigger(self.CONFIG, {"hot": root_state()})
        close_window(sim, scribe, reb, load=50)
        close_window(sim, scribe, reb, load=50)
        assert scribe.promoted == ["hot"]
        assert reb.promotions == 1
        # Streak was consumed; staying hot does not re-promote while the
        # replica set stands.
        close_window(sim, scribe, reb, load=50)
        close_window(sim, scribe, reb, load=50)
        assert scribe.promoted == ["hot"]

    def test_dead_zone_window_resets_the_hot_streak(self):
        sim, scribe, reb = make_trigger(self.CONFIG, {"hot": root_state()})
        close_window(sim, scribe, reb, load=50)
        close_window(sim, scribe, reb, load=5)   # between cool and hot
        close_window(sim, scribe, reb, load=50)
        assert scribe.promoted == []
        assert reb.streaks("hot") == {"hot": 1, "cool": 0}

    def test_cool_windows_demote_a_replicated_root(self):
        sim, scribe, reb = make_trigger(self.CONFIG, {"hot": root_state()})
        close_window(sim, scribe, reb, load=50)
        close_window(sim, scribe, reb, load=50)
        assert scribe.promoted == ["hot"]
        close_window(sim, scribe, reb, load=0)
        assert scribe.demoted == []
        close_window(sim, scribe, reb, load=0)
        assert scribe.demoted == ["hot"]
        assert reb.demotions == 1

    def test_a_hot_window_interrupts_the_cool_streak(self):
        sim, scribe, reb = make_trigger(self.CONFIG, {"hot": root_state()})
        close_window(sim, scribe, reb, load=50)
        close_window(sim, scribe, reb, load=50)
        close_window(sim, scribe, reb, load=0)
        close_window(sim, scribe, reb, load=50)  # hot again
        close_window(sim, scribe, reb, load=0)
        assert scribe.demoted == []

    def test_non_root_topics_never_trigger(self):
        state = root_state()
        state.is_root = False
        state.parent = 5
        sim, scribe, reb = make_trigger(self.CONFIG, {"hot": state})
        close_window(sim, scribe, reb, load=50)
        close_window(sim, scribe, reb, load=50)
        assert scribe.promoted == []

    def test_promotion_needs_enough_children_to_spread(self):
        sim, scribe, reb = make_trigger(self.CONFIG,
                                        {"hot": root_state(children=1)})
        close_window(sim, scribe, reb, load=50)
        close_window(sim, scribe, reb, load=50)
        assert scribe.promoted == []

    def test_window_load_accounting(self):
        sim, scribe, reb = make_trigger(self.CONFIG, {"hot": root_state()})
        reb.record("hot")
        reb.record("hot")
        assert reb.window_load("hot") == 2
        sim.now += 10.0  # window still open: tick is a no-op
        reb.tick(None)
        assert reb.window_load("hot") == 2
        sim.now += self.CONFIG.window_ms
        reb.tick(None)
        assert reb.window_load("hot") == 0  # window closed and reset


# ----------------------------------------------------------------------
# Integration: a real overlay with one heated topic
# ----------------------------------------------------------------------
def node_scribe(node):
    return node.app("scribe")


@pytest.fixture
def hot_overlay(sim):
    """Overlay with rebalancing scribes; 20 members on topic 'GPU'."""
    network = Network(sim, UniformLatencyModel(0.5))
    streams = RandomStreams(1234)
    overlay = Overlay(sim, network, streams, make_ec2_registry(),
                      isolation=True)
    overlay.create_population(6)
    overlay.bootstrap()
    for node in overlay.nodes:
        node.register_app(ScribeApplication(sim, rebalance=CFG))
    members = overlay.nodes[:MEMBERS]
    for node in members:
        node_scribe(node).join(node, "GPU")
    sim.run()
    return overlay, network, members


def heat_and_tick(sim, overlay, root, readers=10):
    """One open window of reads at the root, then a window-closing tick."""
    sc = node_scribe(root)
    sc.maintain(root)  # opens the accounting window
    sim.run()
    for node in overlay.nodes[-readers:]:
        node_scribe(node).tree_size(node, "GPU").result()
    sim.schedule_at(sim.now + 2 * CFG.window_ms, lambda: sc.maintain(root))
    sim.run()
    return sc.topics()["GPU"]


def find_root(overlay):
    root = overlay.root_of(topic_id("GPU"))
    assert node_scribe(root).topics()["GPU"].is_root
    return root


def by_address(overlay, address):
    return next(n for n in overlay.nodes if n.address == address)


class TestPromotion:
    def test_hot_root_spawns_acknowledged_replicas(self, sim, hot_overlay):
        overlay, _, members = hot_overlay
        root = find_root(overlay)
        state = heat_and_tick(sim, overlay, root)
        assert state.replicas, "hot root did not replicate"
        assert len(state.replicas) <= CFG.max_replicas
        for addr in state.replicas:
            assert addr in state.children
            rstate = node_scribe(by_address(overlay, addr)).topics()["GPU"]
            assert rstate.replica_of == root.address
            assert rstate.parent == root.address

    def test_replica_snapshots_match_the_root(self, sim, hot_overlay):
        overlay, _, members = hot_overlay
        root = find_root(overlay)
        state = heat_and_tick(sim, overlay, root)
        sim.run()
        for addr in state.replicas:
            rstate = node_scribe(by_address(overlay, addr)).topics()["GPU"]
            assert rstate.replica_values is not None
            assert rstate.replica_values.get("count") == MEMBERS

    def test_aggregates_stay_exact_through_reparenting(self, sim, hot_overlay):
        overlay, _, members = hot_overlay
        root = find_root(overlay)
        heat_and_tick(sim, overlay, root)
        sim.run()
        asker = overlay.nodes[-1]
        assert node_scribe(asker).tree_size(asker, "GPU").result() == MEMBERS
        # Membership changes after the split keep rolling up correctly.
        leaver = members[0]
        node_scribe(leaver).leave(leaver, "GPU")
        sim.run()
        assert node_scribe(asker).tree_size(asker, "GPU").result() == MEMBERS - 1

    def test_promote_metric_is_recorded(self, sim, hot_overlay):
        overlay, _, _ = hot_overlay
        root = find_root(overlay)
        heat_and_tick(sim, overlay, root)
        assert node_scribe(root).rebalancer.promotions == 1


class TestDiversion:
    def test_reader_learns_hints_and_diverts_to_a_replica(self, sim, hot_overlay):
        overlay, network, _ = hot_overlay
        root = find_root(overlay)
        state = heat_and_tick(sim, overlay, root)
        assert state.replicas
        asker = overlay.nodes[-1]
        sc = node_scribe(asker)
        # First read is routed to the root and piggybacks the replica set.
        assert sc.tree_size(asker, "GPU").result() == MEMBERS
        assert sorted(sc.rebalancer.hints["GPU"]) == sorted(state.replicas)
        # Second read goes straight to a replica: the root sees no traffic.
        before_root = network.per_host_received[root.address]
        replica_before = {a: network.per_host_received[a]
                          for a in state.replicas}
        assert sc.tree_size(asker, "GPU").result() == MEMBERS
        assert network.per_host_received[root.address] == before_root
        assert any(network.per_host_received[a] > replica_before[a]
                   for a in state.replicas)

    def test_stale_hint_falls_back_to_routed_read(self, sim, hot_overlay):
        overlay, _, _ = hot_overlay
        asker = overlay.nodes[-1]
        bystander = overlay.nodes[-2]
        sc = node_scribe(asker)
        # Poison the hint with a node that is not a replica at all.
        sc.rebalancer.hints["GPU"] = [bystander.address]
        assert sc.tree_size(asker, "GPU").result() == MEMBERS
        # The unreplicated root's reply retracted the bogus hint.
        assert "GPU" not in sc.rebalancer.hints

    def test_stale_anycast_hint_falls_back_to_rendezvous_routing(
            self, sim, hot_overlay):
        overlay, _, _ = hot_overlay
        asker = overlay.nodes[-1]
        sc = node_scribe(asker)
        # A hint naming a node with no role in the tree at all.
        outsider = next(
            n for n in overlay.nodes
            if n is not asker and "GPU" not in node_scribe(n).topics())
        sc.rebalancer.hints["GPU"] = [outsider.address]
        result = sc.anycast(asker, "GPU", {"entries": []}).result()
        # No visitor is wired, so the DFS runs to exhaustion: re-routed
        # through the rendezvous it still covers every member.
        assert not result["satisfied"]
        assert result["visited_members"] == MEMBERS

    def test_non_replica_refuses_a_sync_and_leaves_the_set(self, sim,
                                                           hot_overlay):
        overlay, _, _ = hot_overlay
        root = find_root(overlay)
        state = heat_and_tick(sim, overlay, root)
        replica = by_address(overlay, sorted(state.replicas)[0])
        rstate = node_scribe(replica).topics()["GPU"]
        # The replica re-homed while the root was not looking.
        rstate.replica_of = None
        rstate.parent = overlay.nodes[-1].address
        node_scribe(root).rebalancer.sync_replicas(root, state)
        sim.run()
        assert replica.address not in state.replicas
        assert rstate.replica_of is None  # the sync did not re-enlist it


class TestDemotion:
    def test_cool_windows_dissolve_the_replica_set(self, sim, hot_overlay):
        overlay, _, _ = hot_overlay
        root = find_root(overlay)
        sc = node_scribe(root)
        state = heat_and_tick(sim, overlay, root)
        assert state.replicas
        replica_addrs = sorted(state.replicas)
        # Quiet windows: only the root's own maintenance self-join lands,
        # which stays at or below cool_threshold.
        for k in range(1, 2 + CFG.cool_windows):
            sim.schedule_at(sim.now + k * 2 * CFG.window_ms,
                            lambda: sc.maintain(root))
        sim.run()
        assert not state.replicas
        assert sc.rebalancer.demotions == 1
        for addr in replica_addrs:
            rstate = node_scribe(by_address(overlay, addr)).topics()["GPU"]
            assert rstate.replica_of is None
            assert rstate.replica_values is None
        asker = overlay.nodes[-1]
        assert node_scribe(asker).tree_size(asker, "GPU").result() == MEMBERS

    def test_replica_of_a_dead_root_self_demotes(self, sim, hot_overlay):
        overlay, network, _ = hot_overlay
        root = find_root(overlay)
        state = heat_and_tick(sim, overlay, root)
        assert state.replicas
        replica = by_address(overlay, sorted(state.replicas)[0])
        network.detach(root)
        rsc = node_scribe(replica)
        rsc.maintain(replica)
        rstate = rsc.topics()["GPU"]
        assert rstate.replica_of is None
        assert rstate.replica_values is None


class TestPlacement:
    def test_closest_neighbors_are_live_deterministic_and_exclude_self(
            self, sim, hot_overlay):
        overlay, network, _ = hot_overlay
        node = overlay.nodes[0]
        key = topic_id("GPU")
        picks = node.closest_neighbors(key, 3)
        assert len(picks) <= 3
        assert node.address not in [p.address for p in picks]
        assert picks == node.closest_neighbors(key, 3)
        if picks:
            dead = by_address(overlay, picks[0].address)
            network.detach(dead)
            again = node.closest_neighbors(key, 3)
            assert dead.address not in [p.address for p in again]
