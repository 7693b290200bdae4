"""Integration tests for Scribe trees: join/leave/multicast/anycast."""

import pytest

from repro.faults.injector import protocol_kind
from repro.net.message import Message
from repro.net.network import FaultDecision
from repro.pastry.nodeid import NodeId
from repro.query.executor import QueryApplication, _QueryContext
from repro.scribe.topic import topic_id
from repro.sim.futures import FutureTimeout


@pytest.fixture
def members(sim, streams, scribe_overlay):
    """30 nodes subscribed to topic 'GPU'."""
    rng = streams.stream("members")
    chosen = rng.sample(scribe_overlay.nodes, 30)
    for node in chosen:
        node.app("scribe").join(node, "GPU")
    sim.run()
    return scribe_overlay, chosen


def scribe(node):
    return node.app("scribe")


class TestTopicNaming:
    def test_topic_id_is_hash_of_name_and_creator(self):
        assert topic_id("GPU") == NodeId.from_key("GPU#rbay")
        assert topic_id("GPU", "alice") == NodeId.from_key("GPU#alice")

    def test_different_topics_different_roots(self):
        assert topic_id("GPU") != topic_id("CPU")


class TestJoinLeave:
    def test_root_is_closest_node_to_topic_id(self, sim, members):
        overlay, chosen = members
        expected_root = overlay.root_of(topic_id("GPU"))
        state = scribe(expected_root).topics().get("GPU")
        assert state is not None and state.is_root

    def test_members_are_connected_to_tree(self, members):
        _, chosen = members
        for node in chosen:
            state = scribe(node).topics()["GPU"]
            assert state.member
            assert state.in_tree()

    def test_tree_size_counts_members(self, sim, members):
        overlay, chosen = members
        asker = overlay.nodes[0]
        assert scribe(asker).tree_size(asker, "GPU").result() == 30

    def test_rejoin_is_idempotent(self, sim, members):
        overlay, chosen = members
        node = chosen[0]
        scribe(node).join(node, "GPU")
        sim.run()
        asker = overlay.nodes[1]
        assert scribe(asker).tree_size(asker, "GPU").result() == 30

    def test_leave_updates_size(self, sim, members):
        overlay, chosen = members
        for node in chosen[:10]:
            scribe(node).leave(node, "GPU")
        sim.run()
        asker = overlay.nodes[0]
        assert scribe(asker).tree_size(asker, "GPU").result() == 20

    def test_leave_nonmember_is_noop(self, sim, members):
        overlay, chosen = members
        outsider = next(n for n in overlay.nodes if n not in chosen)
        scribe(outsider).leave(outsider, "GPU")
        sim.run()
        asker = overlay.nodes[0]
        assert scribe(asker).tree_size(asker, "GPU").result() == 30

    def test_forwarder_keeps_tree_alive_for_members_below(self, sim, members):
        """Leaving forwarders with children must not orphan the children."""
        overlay, chosen = members
        # Leave half the members; sizes must stay consistent afterwards.
        for node in chosen[0:30:2]:
            scribe(node).leave(node, "GPU")
        sim.run()
        asker = overlay.nodes[2]
        assert scribe(asker).tree_size(asker, "GPU").result() == 15

    def test_empty_topic_size_zero(self, sim, scribe_overlay):
        node = scribe_overlay.nodes[0]
        assert scribe(node).tree_size(node, "never-joined").result() == 0


class TestMulticast:
    def test_reaches_every_member_exactly_once(self, sim, members):
        overlay, chosen = members
        got = []
        for node in overlay.nodes:
            scribe(node).multicast_handler = (
                lambda n, topic, body: got.append((n.address, body["x"]))
            )
        scribe(chosen[0]).multicast(chosen[0], "GPU", {"x": 42})
        sim.run()
        assert len(got) == 30
        assert len({address for address, _ in got}) == 30
        assert all(value == 42 for _, value in got)

    def test_nonmembers_do_not_receive(self, sim, members):
        overlay, chosen = members
        got = []
        member_addresses = {n.address for n in chosen}
        for node in overlay.nodes:
            scribe(node).multicast_handler = (
                lambda n, topic, body: got.append(n.address)
            )
        scribe(overlay.nodes[0]).multicast(overlay.nodes[0], "GPU", {})
        sim.run()
        assert set(got) <= member_addresses

    def test_multicast_from_nonmember_works(self, sim, members):
        overlay, chosen = members
        outsider = next(n for n in overlay.nodes if n not in chosen)
        got = []
        for node in chosen:
            scribe(node).multicast_handler = lambda n, t, b: got.append(1)
        scribe(outsider).multicast(outsider, "GPU", {"cmd": "hide"})
        sim.run()
        assert len(got) == 30

    def test_multicast_empty_topic_is_silent(self, sim, scribe_overlay):
        node = scribe_overlay.nodes[0]
        scribe(node).multicast(node, "ghost", {"x": 1})
        sim.run()  # must not raise


class TestAnycast:
    def test_finds_k_members(self, sim, members):
        overlay, chosen = members

        def visitor(node, topic, state):
            state["found"].append(node.address)
            return len(state["found"]) >= 5

        for node in overlay.nodes:
            scribe(node).anycast_visitor = visitor
        result = scribe(overlay.nodes[3]).anycast(
            overlay.nodes[3], "GPU", {"found": []}
        ).result()
        assert result["satisfied"]
        assert len(result["found"]) == 5
        assert len(set(result["found"])) == 5

    def test_exhausts_when_not_enough(self, sim, members):
        overlay, chosen = members

        def visitor(node, topic, state):
            state["found"].append(node.address)
            return len(state["found"]) >= 500

        for node in overlay.nodes:
            scribe(node).anycast_visitor = visitor
        result = scribe(overlay.nodes[1]).anycast(
            overlay.nodes[1], "GPU", {"found": []}
        ).result()
        assert not result["satisfied"]
        assert result["visited_members"] == 30

    def test_anycast_on_empty_topic_exhausts_immediately(self, sim, scribe_overlay):
        node = scribe_overlay.nodes[0]
        result = scribe(node).anycast(node, "void", {"found": []}).result()
        assert not result["satisfied"]
        assert result["visited_members"] == 0

    def test_dfs_visits_every_member_at_most_once(self, sim, members):
        overlay, chosen = members
        visits = []

        def visitor(node, topic, state):
            visits.append(node.address)
            return False

        for node in overlay.nodes:
            scribe(node).anycast_visitor = visitor
        scribe(overlay.nodes[5]).anycast(overlay.nodes[5], "GPU", {}).result()
        assert len(visits) == len(set(visits)) == 30


class TestChurnRepair:
    def test_member_failure_heals_after_maintenance(self, sim, members):
        overlay, chosen = members
        chosen[4].fail()
        sim.run()
        for _ in range(3):
            for node in overlay.live_nodes():
                scribe(node).maintain(node)
            sim.run()
        asker = overlay.live_nodes()[0]
        assert scribe(asker).tree_size(asker, "GPU").result() == 29

    def test_root_failure_reconverges_on_new_root(self, sim, members):
        overlay, chosen = members
        old_root = overlay.root_of(topic_id("GPU"))
        old_root.fail()
        sim.run()
        for _ in range(3):
            for node in overlay.live_nodes():
                scribe(node).maintain(node)
            sim.run()
        expected = 30 - (1 if old_root in chosen else 0)
        asker = overlay.live_nodes()[3]
        assert scribe(asker).tree_size(asker, "GPU").result() == expected

    def test_multicast_still_works_after_failures(self, sim, members):
        overlay, chosen = members
        dead = chosen[:3]
        for node in dead:
            node.fail()
        sim.run()
        for _ in range(3):
            for node in overlay.live_nodes():
                scribe(node).maintain(node)
            sim.run()
        got = []
        live_members = [n for n in chosen if n.alive]
        for node in live_members:
            scribe(node).multicast_handler = lambda n, t, b: got.append(n.address)
        sender = overlay.live_nodes()[0]
        scribe(sender).multicast(sender, "GPU", {})
        sim.run()
        assert len(set(got)) == len(live_members)


    def test_maintain_acts_on_the_nodes_own_liveness_belief(self, sim, members):
        """Scribe asks the *node* who is alive (``believes_alive``), not the
        transport: a child the node disbelieves is dropped and not probed
        although the network still hosts it."""
        overlay, _ = members
        node = next(n for n in overlay.nodes
                    if len(getattr(scribe(n).topics().get("GPU"),
                                   "children", ())) >= 2)
        state = scribe(node).topics()["GPU"]
        child, *others = state.children
        assert overlay.network.has_host(child)
        node.believes_alive = lambda address: address != child
        probed = set()
        send_app = node.send_app
        node.send_app = lambda dst, app, kind, payload: (
            probed.add(dst) if kind == "child_probe" else None,
            send_app(dst, app, kind, payload))
        scribe(node).maintain(node)
        assert child not in state.children
        assert probed == set(others)  # every other child, never the disbelieved one


class TestRequestTable:
    def test_lost_replies_leave_no_pending_entry(self, sim, members):
        """Aim 3's "never grow a queue without limit": an entry leaves
        ``_pending`` when its future resolves, by reply *or* by timeout."""
        overlay, _ = members
        root = overlay.root_of(topic_id("GPU"))
        asker = next(n for n in overlay.nodes if n is not root)
        lost = {"direct/scribe/agg_value", "direct/scribe/anycast_result"}
        overlay.network.fault_filter = lambda src, dst, msg: (
            FaultDecision(drop=True) if protocol_kind(msg) in lost else None)
        app = scribe(asker)
        futures = [app.tree_size(asker, "GPU", timeout=500.0) for _ in range(50)]
        futures += [app.anycast(asker, "GPU", {"want": 1}, timeout=500.0)
                    for _ in range(20)]
        assert len(app._pending) == 70
        sim.run(until=sim.now + 1_000.0)
        assert all(isinstance(f.value, FutureTimeout) for f in futures)
        assert len(app._pending) == 0

    def test_retired_and_unknown_kinds_are_ignored(self, sim, members):
        """``host_message`` / ``deliver`` promise it: a kind this build
        has no handler for (an older peer still speaking the retired pull
        protocol, or garbage) raises nothing, sends nothing and opens no
        request."""
        overlay, chosen = members
        for node in overlay.nodes:
            node.register_app(QueryApplication(_QueryContext(sim, [])))
        root = overlay.root_of(topic_id("GPU"))
        peer = next(n for n in chosen if n is not root)
        sent = overlay.network.messages_sent

        def direct(app, kind, data):
            return Message(kind="pastry.direct", payload={
                "app": app, "kind": kind, "data": data, "origin": peer.address})

        root.on_message(direct("scribe", "pull_down",
                               {"topic": "GPU", "names": ["count"], "pull_id": 7}))
        root.on_message(direct("scribe", "pull_up",
                               {"pull_id": 7, "accs": {"count": 3}}))
        root.on_message(direct("query", "nope", {"query_id": 1}))
        root.on_message(Message(kind="pastry.route", payload={
            "key": topic_id("GPU").value, "app": "scribe", "scope": "global",
            "origin": peer.address,
            "data": {"op": "agg_pull", "topic": "GPU", "scope": "global",
                     "origin": peer.address, "request_id": 9,
                     "names": ["count"]}}))
        sim.run()
        assert overlay.network.messages_sent == sent
        assert not scribe(root)._pending and not scribe(peer)._pending
        assert scribe(peer).tree_size(peer, "GPU").result() == 30


class TestSiteScopedTrees:
    def test_site_tree_confined_to_site(self, sim, scribe_overlay):
        overlay = scribe_overlay
        site0_nodes = [n for n in overlay.nodes if n.site.index == 0][:8]
        for node in site0_nodes:
            scribe(node).join(node, "Virginia/c3.large", scope="site")
        sim.run()
        for node in overlay.nodes:
            state = scribe(node).topics().get("Virginia/c3.large")
            if state is not None and state.in_tree():
                assert node.site.index == 0

    def test_same_topic_name_different_sites_are_disjoint(self, sim, scribe_overlay):
        overlay = scribe_overlay
        site0 = [n for n in overlay.nodes if n.site.index == 0][:5]
        site1 = [n for n in overlay.nodes if n.site.index == 1][:7]
        for node in site0:
            scribe(node).join(node, "S0/tree", scope="site")
        for node in site1:
            scribe(node).join(node, "S1/tree", scope="site")
        sim.run()
        a0 = site0[0]
        a1 = site1[0]
        assert scribe(a0).tree_size(a0, "S0/tree", scope="site").result() == 5
        assert scribe(a1).tree_size(a1, "S1/tree", scope="site").result() == 7
