"""Load-triggered hot-tree rebalancing (D3-Tree style root replication).

RBAY hash-places every attribute tree's rendezvous root, but federation
traffic is zipfian: one popular attribute funnels every probe, anycast,
and ``agg_get`` through a single root node.  This module holds the whole
balancer, so a scribe built without one never imports it:

* :class:`RebalanceConfig` — thresholds, window, and hysteresis knobs
  (handed to the plane as ``RBayConfig.rebalance``);
* :class:`Rebalancer` — one per :class:`~repro.scribe.scribe.ScribeApplication`.
  The decision side counts the messages each topic handles at this node
  per fixed window (mirrored into the ``scribe.topic_load`` labeled
  metric of the obs plane) and turns consecutive hot/cool windows into
  deterministic promote/demote decisions.  The mechanism side is the
  ``replica_promote`` / ``replica_sync`` / ``replica_demote`` /
  ``replica_refuse`` / ``replica_probe`` / ``replica_get`` /
  ``anycast_divert`` protocol — seven direct kinds it registers into its
  scribe's dispatch table — plus child re-partitioning, snapshot
  coherence and client-side read diversion.

Per-topic replica state stays on :class:`~repro.scribe.scribe.TopicState`
(where the sanitizer reads it); replica *placement* (leaf-set neighbors
nearest the topic key) lives in
:meth:`repro.pastry.node.PastryNode.closest_neighbors`.  See
``docs/architecture.md`` §15.

Everything here is clock-driven off maintenance ticks and therefore fully
deterministic: identical runs make identical promote/demote decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.pastry.nodeid import NodeId
from repro.pastry.routing_table import NodeRef

if TYPE_CHECKING:  # scribe.py imports this module lazily, never the reverse
    from repro.pastry.node import PastryNode
    from repro.scribe.scribe import ScribeApplication, TopicState


@dataclass(frozen=True)
class RebalanceConfig:
    """Tuning knobs of the hot-tree balancer (one shared config per plane).

    Passing one (``RBayConfig(rebalance=RebalanceConfig(...))``) is the
    switch: a scribe built without a config carries no rebalancer and
    behaves byte-identically to the pre-rebalance protocol.
    """

    #: Messages handled for a topic within one window at its root at or
    #: above which the window counts as *hot*.
    hot_threshold: int = 200
    #: Messages per window at or below which the window counts as *cool*
    #: (the dead zone between the thresholds resets both streaks — the
    #: hysteresis band that prevents promote/demote flap).
    cool_threshold: int = 50
    #: Fixed accounting window (ms); windows advance on maintenance ticks.
    window_ms: float = 1_000.0
    #: Consecutive hot windows required before a root is replicated.
    hot_windows: int = 2
    #: Consecutive cool windows required before replicas are demoted.
    cool_windows: int = 3
    #: Root replicas spawned per promotion (leaf-set neighbors nearest the
    #: topic key, so repeated selections are stable).
    max_replicas: int = 2
    #: A root with fewer children than this is never replicated — there is
    #: no fan-out to spread, so replication would only add hops.
    min_children: int = 2


class Rebalancer:
    """Per-node load accounting, the promote/demote trigger, and the
    replica protocol it drives.

    ``record`` is called from the scribe's message entry points (deliver,
    forward interception, direct tree traffic) for every message that
    names a topic; ``tick`` runs once per maintenance cycle, advancing the
    window when ``window_ms`` has elapsed and applying the hysteresis
    rules at every topic this node currently roots.
    """

    def __init__(self, scribe: "ScribeApplication", config: RebalanceConfig):
        self.scribe = scribe
        self.config = config
        #: The scribe's metrics registry; the load signal is mirrored into
        #: the ``scribe.topic_load`` labeled counter so traces and counter
        #: snapshots expose what drove each promotion.
        self.metrics = scribe.counters
        self._counts: Dict[str, int] = {}
        self._window_start: Optional[float] = None
        self._hot: Dict[str, int] = {}
        self._cool: Dict[str, int] = {}
        #: Lifetime decision counters (also mirrored as
        #: ``scribe.rebalance.promote`` / ``scribe.rebalance.demote``).
        self.promotions = 0
        self.demotions = 0
        #: Replica hints learned from ``agg_value`` replies: topic -> live
        #: replica addresses this client may divert reads to.
        self.hints: Dict[str, List[int]] = {}
        scribe.direct_handlers.update({
            "replica_promote": self._on_replica_promote,
            "replica_sync": self._on_replica_sync,
            "replica_demote": self._on_replica_demote,
            "replica_refuse": self._on_replica_refuse,
            "replica_probe": self._on_replica_probe,
            "replica_get": self._on_replica_get,
            "anycast_divert": self._on_anycast_divert,
        })

    # ------------------------------------------------------------------
    def record(self, topic: str) -> None:
        """Count one handled message against ``topic``'s current window."""
        self._counts[topic] = self._counts.get(topic, 0) + 1
        self.metrics.counter("scribe.topic_load").increment(topic=topic)

    def window_load(self, topic: str) -> int:
        """Messages counted against ``topic`` in the (open) current window."""
        return self._counts.get(topic, 0)

    def streaks(self, topic: str) -> Dict[str, int]:
        """Current hysteresis streaks (testing/diagnostics aid)."""
        return {"hot": self._hot.get(topic, 0), "cool": self._cool.get(topic, 0)}

    # ------------------------------------------------------------------
    def tick(self, node: Any) -> None:
        """One maintenance tick: close the window if due, apply hysteresis.

        Promotion fires at a root after ``hot_windows`` consecutive hot
        windows (given at least ``min_children`` children to spread);
        demotion fires after ``cool_windows`` consecutive cool windows.
        Mid-band windows reset both streaks.
        """
        now = self.scribe.sim.now
        if self._window_start is None:
            self._window_start = now
            return
        if now - self._window_start < self.config.window_ms:
            return
        counts, self._counts = self._counts, {}
        self._window_start = now
        cfg = self.config
        for topic, state in sorted(self.scribe.topics().items()):
            if not state.is_root or not state.in_tree():
                self._hot.pop(topic, None)
                self._cool.pop(topic, None)
                continue
            load = counts.get(topic, 0)
            if load >= cfg.hot_threshold:
                self._hot[topic] = self._hot.get(topic, 0) + 1
                self._cool.pop(topic, None)
            elif load <= cfg.cool_threshold:
                self._cool[topic] = self._cool.get(topic, 0) + 1
                self._hot.pop(topic, None)
            else:
                self._hot.pop(topic, None)
                self._cool.pop(topic, None)
            if (not state.replicas
                    and self._hot.get(topic, 0) >= cfg.hot_windows
                    and len(state.children) >= cfg.min_children):
                if self._promote_replicas(node, state):
                    self.promotions += 1
                    self._hot.pop(topic, None)
                    self._mark("promote")
            elif state.replicas and self._cool.get(topic, 0) >= cfg.cool_windows:
                self._demote_replicas(node, state)
                self.demotions += 1
                self._cool.pop(topic, None)
                self._mark("demote")

    def _mark(self, action: str) -> None:
        self.metrics.counter("scribe.rebalance").increment(action=action)

    # ------------------------------------------------------------------
    # Client side: read diversion
    # ------------------------------------------------------------------
    def learn_replicas(self, topic: str, replicas: List[int]) -> None:
        """An ``agg_value`` advertised ``topic``'s live replica set; an
        empty list is a retraction (post-demotion)."""
        if replicas:
            self.hints[topic] = list(replicas)
        else:
            self.hints.pop(topic, None)

    def divert(self, node: "PastryNode", topic: str, kind: str,
               data: Dict[str, Any]) -> bool:
        """Send ``data`` straight to a live replica of ``topic`` as a
        direct ``kind`` message; False (nothing sent) without a usable hint."""
        state = self.scribe.topics().get(topic)
        if state is not None and (state.is_root or state.replica_of is not None):
            return False  # we ARE the root or a replica: answer in place
        hints = self.hints.get(topic)
        if not hints:
            return False
        live = [a for a in hints
                if a != node.address and node.believes_alive(a)]
        if not live:
            self.hints.pop(topic, None)
            return False
        # Deterministic spread: distinct clients fan out across replicas.
        node.send_app(live[node.address % len(live)], self.scribe.name, kind, data)
        return True

    def _reroute(self, node: "PastryNode", data: Dict[str, Any]) -> None:
        """A diverted request reached a node that cannot serve it (stale
        hint): hand it back to rendezvous routing.  ``data`` still carries
        its ``op`` and the caller's request identity, so forward/deliver
        apply and the reply lands at the original future."""
        state = self.scribe.topic_state(data["topic"], data.get("scope"))
        node.route(state.key, self.scribe.name, data, scope=state.scope)

    # ------------------------------------------------------------------
    # Root side: promote, sync, demote
    # ------------------------------------------------------------------
    def _promote_replicas(self, node: "PastryNode", state: "TopicState") -> bool:
        """Replicate a hot root: promote the leaf-set neighbors nearest the
        topic key and re-partition the root's other children across them
        (the D3-Tree split).

        Replicas stay *interior nodes of the same tree* — children of the
        root — so every existing mechanism (roll-up merge, anycast DFS,
        child probes, the single-root invariant) applies unchanged; the
        win is that diverted readers are answered one hop away from a
        root-coherent snapshot.
        """
        scribe = self.scribe
        picks = node.closest_neighbors(state.key, self.config.max_replicas,
                                       scope=state.scope)
        if not picks:
            return False
        pick_addrs = [ref.address for ref in picks]
        finalized = scribe._finalized(state, state.agg_names())
        # Round-robin the current children across the new replicas; their
        # re-homing (ordinary parent_set handling) drains the root's
        # per-message fan-out while aggregation keeps flowing upward.
        others = sorted(a for a in state.children if a not in pick_addrs)
        assigned: Dict[int, List[tuple]] = {a: [] for a in pick_addrs}
        for i, child_addr in enumerate(others):
            ref = state.children[child_addr]
            assigned[pick_addrs[i % len(pick_addrs)]].append(
                (ref.node_id.value, ref.address, ref.site_index))
        for ref in picks:
            state.replicas[ref.address] = ref
        peers = sorted(state.replicas)
        for ref in picks:
            scribe._add_child(node, state, ref)
            node.send_app(ref.address, scribe.name, "replica_promote", {
                "topic": state.topic,
                "scope": state.scope,
                "values": dict(finalized),
                "peers": list(peers),
                "assigned": assigned[ref.address],
            })
        return True

    def _demote_replicas(self, node: "PastryNode", state: "TopicState") -> None:
        """Load subsided (or we stopped being root): release the replica
        role everywhere.  Ex-replicas stay ordinary children until the
        scribe's pruning dissolves them, so adopted subtrees keep flowing
        and no aggregate state is lost."""
        for address in sorted(state.replicas):
            if node.believes_alive(address):
                node.send_app(address, self.scribe.name, "replica_demote",
                              {"topic": state.topic})
        state.replicas.clear()

    def sync_replicas(self, node: "PastryNode", state: "TopicState") -> None:
        """Push the root's finalized snapshot to every live replica."""
        values = self.scribe._finalized(state, state.agg_names())
        peers = sorted(state.replicas)
        for address in peers:
            if node.believes_alive(address):
                node.send_app(address, self.scribe.name, "replica_sync", {
                    "topic": state.topic,
                    "values": dict(values),
                    "peers": list(peers),
                })

    def _clear_replica_role(self, node: "PastryNode", state: "TopicState") -> None:
        state.replica_of = None
        state.replica_values = None
        state.replica_peers = []
        self.scribe._maybe_prune(node, state)

    def replica_maintain(self, node: "PastryNode") -> None:
        """Per-tick anti-entropy for the replication protocol (both roles):
        heals lost promote/demote messages, prunes dead replicas, and keeps
        snapshots coherent through the same maintenance cadence the rest of
        the tree repair uses."""
        for state in list(self.scribe.topics().values()):
            if state.replicas:
                if not state.is_root:
                    # Lost a root re-anchor race: a node that is no longer
                    # the rendezvous must not keep a replica set.
                    self._demote_replicas(node, state)
                else:
                    for address in sorted(state.replicas):
                        if (address not in state.children
                                or not node.believes_alive(address)):
                            state.replicas.pop(address, None)
                    self.sync_replicas(node, state)
            if state.replica_of is not None:
                root = state.replica_of
                if not node.believes_alive(root) or state.parent != root:
                    # Root died or we re-homed: stop serving the snapshot.
                    self._clear_replica_role(node, state)
                else:
                    # Lost-demote healer: the root replies replica_demote
                    # when it no longer lists us in its replica set.
                    node.send_app(root, self.scribe.name, "replica_probe",
                                  {"topic": state.topic})

    # ------------------------------------------------------------------
    # The seven direct kinds registered into the scribe's table
    # ------------------------------------------------------------------
    def _on_replica_promote(self, node: "PastryNode", data: Dict[str, Any],
                            origin: int) -> None:
        scribe = self.scribe
        state = scribe.topic_state(data["topic"], data.get("scope"))
        state.replica_of = origin
        state.replica_values = dict(data["values"])
        state.replica_peers = list(data["peers"])
        for child_id, child_addr, child_site in data["assigned"]:
            scribe._add_child(
                node, state, NodeRef(NodeId(child_id), child_addr, child_site))

    def _on_replica_sync(self, node: "PastryNode", data: Dict[str, Any],
                         origin: int) -> None:
        state = self.scribe.topic_state(data["topic"])
        if state.replica_of == origin or (state.replica_of is None
                                          and state.parent == origin):
            # The second clause completes a promotion whose
            # ``replica_promote`` was lost: the syncing root still lists us
            # as a replica-child, so accept the role from the sync alone.
            state.replica_of = origin
            state.replica_values = dict(data["values"])
            state.replica_peers = list(data["peers"])
        else:
            node.send_app(origin, self.scribe.name, "replica_refuse",
                          {"topic": data["topic"]})

    def _on_replica_demote(self, node: "PastryNode", data: Dict[str, Any],
                           origin: int) -> None:
        state = self.scribe.topics().get(data["topic"])
        if state is None or state.replica_of != origin:
            return
        self._clear_replica_role(node, state)

    def _on_replica_refuse(self, node: "PastryNode", data: Dict[str, Any],
                           origin: int) -> None:
        state = self.scribe.topics().get(data["topic"])
        if state is not None:
            state.replicas.pop(origin, None)

    def _on_replica_probe(self, node: "PastryNode", data: Dict[str, Any],
                          origin: int) -> None:
        state = self.scribe.topics().get(data["topic"])
        if state is None or not state.is_root or origin not in state.replicas:
            node.send_app(origin, self.scribe.name, "replica_demote",
                          {"topic": data["topic"]})

    def _on_replica_get(self, node: "PastryNode", data: Dict[str, Any],
                        origin: int) -> None:
        state = self.scribe.topics().get(data["topic"])
        snapshot = state.replica_values if state is not None else None
        if (state is not None and state.replica_of is not None
                and snapshot is not None
                and all(n in snapshot for n in data["names"])):
            node.send_app(data["origin"], self.scribe.name, "agg_value", {
                "request_id": data["request_id"],
                "values": {n: snapshot[n] for n in data["names"]},
                "topic": data["topic"],
                "replicas": list(state.replica_peers),
            })
            return
        # We were demoted, or the snapshot lacks a requested aggregate:
        # fall back to a normal routed read.
        self._reroute(node, data)

    def _on_anycast_divert(self, node: "PastryNode", data: Dict[str, Any],
                           origin: int) -> None:
        """A diverted walk at a node out of the tree (one in the tree starts
        the walk in ``ScribeApplication.host_message``)."""
        self._reroute(node, data)
