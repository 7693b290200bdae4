"""The Scribe application: per-topic trees with multicast/anycast/aggregate.

One :class:`ScribeApplication` instance is registered on every Pastry node.
Tree construction follows the paper (§II-B2): a node wanting topic T routes a
JOIN toward ``topic_id(T)``; every node along the path becomes a forwarder
and adopts the previous hop as a child, so the union of join paths forms the
spanning tree rooted at the node closest to the TopicId.
"""

from __future__ import annotations

import functools
import itertools
from sys import intern as _intern
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.message import Message, _estimate_size
from repro.obs import Observability
from repro.pastry.node import (Application, PastryNode, envelope_size,
                               route_envelope_size)
from repro.pastry.nodeid import NodeId
from repro.pastry.routing_table import NodeRef
from repro.scribe.aggregate import AGGREGATE_FUNCTIONS, AggregateFunction
from repro.scribe.topic import topic_id
from repro.sim.engine import Simulator
from repro.sim.futures import Future, RequestTable

_request_ids = itertools.count(1)

#: Size of an ``agg_push_batch``'s data with no updates (``child`` is three
#: numbers), and of one update's keys: a batch is sized as it is built,
#: each update adding these keys plus its topic, aggregate name and
#: accumulator.
_PUSH_BATCH_BASE = _estimate_size({"child": (0, 0, 0), "updates": []})
_PUSH_UPDATE_KEYS = _estimate_size({"topic": "", "agg": "", "acc": ""})


@functools.cache
def _named(topic: str) -> Tuple[Dict[str, str], int]:
    """``{"topic": topic}`` and its size: the data of the tree-upkeep sends
    (``child_probe``, ``leave``, ``parent_set``, ``parent_gone``) about a
    topic this process holds state for, built once per topic and shared
    read-only (a message is a copy)."""
    data = {"topic": topic}
    return data, _estimate_size(data)


#: Visitor invoked at each member during anycast DFS.  Returns
#: ``(state, satisfied)``: the state dict the walk carries on — the one it
#: was given when the member added nothing, else a new dict, never the
#: given one mutated (a message is a copy) — and True when the anycast is
#: satisfied and should return to its origin.
AnycastVisitor = Callable[[PastryNode, str, Dict[str, Any]],
                          Tuple[Dict[str, Any], bool]]

#: Callback invoked at each member on multicast delivery.
MulticastHandler = Callable[[PastryNode, str, Dict[str, Any]], None]


class TopicState:
    """Per-topic tree state held by one node."""

    __slots__ = (
        "topic", "key", "scope", "parent", "former_parent", "is_root", "member",
        "children", "local", "child_acc", "last_pushed", "dirty",
        "replicas", "replica_of", "replica_values", "replica_peers",
    )

    def __init__(self, topic: str, key: NodeId, scope: str = "global"):
        self.topic = topic
        self.key = key
        self.scope = scope
        self.parent: Optional[int] = None
        #: A parent we detached from without saying goodbye (it was dead at
        #: the time).  Once it is reachable again we owe it a "leave" so it
        #: drops our stale accumulator — otherwise a recovered parent would
        #: double-count us against our new tree path.
        self.former_parent: Optional[int] = None
        self.is_root = False
        self.member = False
        self.children: Dict[int, NodeRef] = {}
        # Aggregation: raw member-local values and per-child accumulators.
        self.local: Dict[str, Any] = {}
        self.child_acc: Dict[str, Dict[int, Any]] = {}
        self.last_pushed: Dict[str, Any] = {}
        # Names whose accumulator changed since the last flush (in-network
        # aggregation batches updates so a parent pushes once per wave, not
        # once per child); the flush timer itself is node-level, on the
        # owning ScribeApplication.
        self.dirty: set = set()
        # Hot-tree replication (docs/architecture.md §15).  At the root:
        # addresses of the interior children promoted to replicas.  At a
        # replica: the root's address, the root-pushed finalized snapshot
        # served to diverted readers, and the peer hint list echoed to them.
        self.replicas: Dict[int, NodeRef] = {}
        self.replica_of: Optional[int] = None
        self.replica_values: Optional[Dict[str, Any]] = None
        self.replica_peers: List[int] = []

    def in_tree(self) -> bool:
        return self.is_root or self.parent is not None or bool(self.children) or self.member

    def detached(self) -> bool:
        """Has a stake in the tree (member or forwarder) but no link into it."""
        return (self.parent is None and not self.is_root
                and bool(self.member or self.children))

    def agg_names(self) -> List[str]:
        names = set(self.local)
        names.update(self.child_acc)
        return sorted(names)


class ScribeApplication(Application):
    """Scribe + RBAY's aggregation extension, one instance per node."""

    name = "scribe"

    def __init__(
        self,
        sim: Simulator,
        agg_flush_ms: float = 50.0,
        obs: Optional[Observability] = None,
        rebalance=None,
    ):
        self.sim = sim
        #: The plane's telemetry handle (a fresh disabled one standalone)
        #: supplies the span recorder and the registry the rebalancer
        #: counts into (``scribe.topic_load``, ``scribe.rebalance``).
        obs = obs if obs is not None else Observability()
        self.recorder = obs.recorder
        self.counters = obs.metrics
        #: Coalescing window for aggregation pushes: changes accumulated
        #: within this window travel upward as one update (the paper's
        #: "periodically aggregated" roll-up, §II-B3).
        self.agg_flush_ms = agg_flush_ms
        self.functions = dict(AGGREGATE_FUNCTIONS)
        self._topics: Dict[str, TopicState] = {}
        # Debounce bookkeeping: topics with dirty aggregates awaiting the
        # node-level flush timer — one timer and one "agg_push_batch"
        # message per parent per flush interval.  The timer is never
        # cancelled, so it is posted without a handle, behind this flag.
        self._dirty_topics: Dict[str, TopicState] = {}
        self._flush_armed = False
        #: ``agg_get`` and ``anycast`` requests awaiting their reply.
        self.requests = RequestTable(_request_ids)
        self.anycast_visitor: Optional[AnycastVisitor] = None
        self.multicast_handler: Optional[MulticastHandler] = None
        #: Dispatch tables, one per entry point, built once: wire kind ->
        #: ``handler(node, data, origin)``.  :meth:`host_message` serves
        #: ``direct_handlers``; :meth:`deliver` serves ``routed_handlers``
        #: at the rendezvous (:meth:`forward` intercepts ``join`` and
        #: ``anycast`` mid-route).  A walk is no table entry: it needs the
        #: size it arrived with, so :meth:`deliver`, :meth:`forward` and
        #: :meth:`host_message` start it themselves, before the table.
        #: docs/protocol.md lists every kind.
        self.direct_handlers: Dict[str, Callable[..., None]] = {
            "agg_push_batch": self._on_agg_push_batch,
            "parent_set": self._on_parent_set,
            "mcast_down": self._on_mcast,
            "anycast_result": self._on_anycast_result,
            "agg_value": self._on_agg_value,
            "leave": self._on_leave,
            "child_probe": self._on_child_probe,
            "parent_gone": self._on_parent_gone,
        }
        self.routed_handlers: Dict[str, Callable[..., None]] = {
            "join": self._adopt_joiner,
            "mcast": self._on_mcast,
            "agg_get": self._on_agg_get,
        }
        #: Hot-tree balancer (None = rebalancing off: the module is never
        #: imported, the tables carry no replica kinds, and the wire
        #: behaviour is byte-identical).  It registers its own kinds.
        self.rebalancer: Optional[Any] = None
        if rebalance is not None:
            from repro.scribe.rebalance import Rebalancer
            self.rebalancer = Rebalancer(self, rebalance)

    # ------------------------------------------------------------------
    # Public API (called with the owning node)
    # ------------------------------------------------------------------
    def topic_state(self, topic: str, scope: Optional[str] = None) -> TopicState:
        """This node's state for ``topic``, created lazily.

        Topic names are interned on creation: the same few strings arrive
        over and over from decoded payloads, and interning makes every
        downstream dict lookup a pointer comparison in the common case.
        """
        state = self._topics.get(topic)
        if state is None:
            topic = _intern(topic)
            state = self._topics[topic] = TopicState(
                topic, topic_id(topic), scope or "global"
            )
        if scope is not None:
            state.scope = scope
        return state

    def topics(self) -> Dict[str, TopicState]:
        return self._topics

    def is_member(self, topic: str) -> bool:
        state = self._topics.get(topic)
        return state is not None and state.member

    def register_function(self, fn: AggregateFunction) -> None:
        """Add an aggregate function (e.g. a parameterized ``filter_count``)
        to this node's registry under ``fn.name``."""
        self.functions[fn.name] = fn

    def join(self, node: PastryNode, topic: str, scope: str = "global") -> None:
        """Subscribe ``node`` to ``topic``, building tree state on the way.

        ``scope="site"`` builds the tree with site-scoped routing so the
        rendezvous (root) stays inside the node's own site — the
        administrative-isolation behaviour of paper §III-E.
        """
        state = self.topic_state(topic, scope)
        if state.member:
            return
        state.member = True
        self.set_local(node, topic, "count", 1)
        if state.in_tree() and (state.parent is not None or state.is_root):
            return  # already wired into the tree as a forwarder
        self._route_join(node, state)

    def leave(self, node: PastryNode, topic: str) -> None:
        """Unsubscribe; prunes the branch if nothing depends on it."""
        state = self._topics.get(topic)
        if state is None or not state.member:
            return
        state.member = False
        # Capture the aggregate names *before* clearing the local values:
        # a name contributed only by this member would otherwise vanish
        # from agg_names() and never be re-pushed (stale parent state).
        affected = state.agg_names()
        state.local.clear()
        self._mark_dirty(node, state, affected)
        self._maybe_prune(node, state)

    def multicast(self, node: PastryNode, topic: str, payload: Dict[str, Any]) -> None:
        """Disseminate ``payload`` to all members via the rendezvous root."""
        state = self.topic_state(topic)
        rec = self.recorder
        span = None
        if rec.enabled:
            # Multicast is fire-and-forget: record the send as an instant;
            # deliveries parent under it via the propagated message context.
            span = rec.instant("scribe.multicast", category="scribe", topic=topic,
                               site=node.site.name, addr=node.address)
        with rec.use(span):
            node.route(state.key, self.name, {"op": "mcast", "topic": topic,
                                              "scope": state.scope, "body": payload},
                       scope=state.scope)

    def anycast(
        self,
        node: PastryNode,
        topic: str,
        state_payload: Dict[str, Any],
        timeout: Optional[float] = None,
        scope: Optional[str] = None,
    ) -> Future:
        """Start a DFS anycast; resolves to the state the walk ended with.

        The result dict additionally carries ``satisfied`` (visitor returned
        True) and ``visited_members`` (DFS coverage count).
        ``state_payload`` itself is never changed.
        """
        future, state, span, header = self._open_request(
            node, topic, scope, timeout, "scribe.anycast", "member_search")
        data = {"op": "anycast", **header, "visited": [],
                "visited_members": 0, "state": state_payload}
        with self.recorder.use(span):
            # A hot tree's DFS may start at a root replica instead of the
            # root; the replica is an interior node of the same tree, so
            # DFS coverage semantics are unchanged.
            if self.rebalancer is None or not self.rebalancer.divert(
                    node, topic, "anycast_divert", data):
                node.route(state.key, self.name, data, scope=state.scope)
        return future

    def _open_request(self, node: PastryNode, topic: str, scope: Optional[str],
                      timeout: Optional[float], span_name: str, step: str):
        """Open a request in :attr:`requests` and — when tracing — a span
        that ends with its future.  Returns ``(future, topic state, span,
        header)``; ``header`` is the addressing every such request carries
        after its ``op``."""
        future = Future(self.sim, timeout=timeout)
        request_id = self.requests.open(future)
        state = self.topic_state(topic, scope)
        rec = self.recorder
        span = None
        if rec.enabled:
            span = rec.start(span_name, category="scribe", topic=topic,
                             step=step, site=node.site.name, addr=node.address)
            future.add_callback(lambda result: rec.end(
                span, status="error" if isinstance(result, Exception) else "ok"))
        return future, state, span, {
            "topic": topic, "scope": state.scope, "origin": node.address,
            "request_id": request_id}

    def set_local(self, node: PastryNode, topic: str, agg_name: str, value: Any) -> None:
        """Set this member's contribution to an aggregate; the next flush
        pushes the changed accumulator up."""
        if agg_name not in self.functions:
            raise KeyError(f"unknown aggregate function {agg_name!r}")
        state = self._topics.get(topic)
        if state is None:
            state = self.topic_state(topic)
        state.local[agg_name] = value
        self._mark_one(node, state, agg_name)

    def clear_local(self, node: PastryNode, topic: str, agg_name: str) -> None:
        state = self._topics.get(topic)
        if state and agg_name in state.local:
            del state.local[agg_name]
            self._mark_dirty(node, state, (agg_name,))

    def query_aggregate(
        self,
        node: PastryNode,
        topic: str,
        agg_names: List[str],
        timeout: Optional[float] = None,
        scope: Optional[str] = None,
    ) -> Future:
        """Fetch finalized aggregate values from the topic root.

        Resolves to ``{agg_name: value}``; missing aggregates come back None.
        """
        future, state, span, header = self._open_request(
            node, topic, scope, timeout, "scribe.agg_get", "aggregate")
        data = {"op": "agg_get", **header, "names": list(agg_names)}
        with self.recorder.use(span):
            # Hot-tree diversion: a previous answer advertised root
            # replicas for this topic; ask one directly (one hop) instead
            # of routing through the saturated rendezvous.
            if self.rebalancer is None or not self.rebalancer.divert(
                    node, topic, "replica_get", data):
                node.route(state.key, self.name, data, scope=state.scope)
        return future

    def tree_size(self, node: PastryNode, topic: str, timeout: Optional[float] = None,
                  scope: Optional[str] = None) -> Future:
        """Tree size via the built-in count aggregate (query steps 1–2)."""
        future = Future(self.sim, timeout=timeout)
        self.query_aggregate(node, topic, ["count"], timeout=timeout,
                             scope=scope).add_callback(
            lambda values: future.try_resolve(
                values if isinstance(values, Exception) else int(values.get("count") or 0)
            )
        )
        return future

    def maintain(self, node: PastryNode) -> None:
        """Periodic repair: re-join through live parents, prune dead
        children, and re-push aggregation state.

        The unconditional re-push is the paper's periodic roll-up ("the
        states from tree leaves can be periodically aggregated to the tree
        root"); it doubles as anti-entropy, recovering aggregate state lost
        to dropped messages.
        """
        believes_alive = node.believes_alive
        send_app = node.send_app
        for state in list(self._topics.values()):
            children = state.children
            if children:
                for address in [a for a in children if not believes_alive(a)]:
                    self._drop_child(node, state, address)
                named, size = _named(state.topic)
                for address in list(children):
                    # Child-link anti-entropy: a child that re-homed while we
                    # were unreachable answers with "leave", evicting its stale
                    # accumulator here.  Repeating every tick makes the check
                    # robust to message loss (a lost probe retries next tick).
                    send_app(address, self.name, "child_probe", named, size)
            if state.parent is not None and not believes_alive(state.parent):
                self._goodbye(node, state)  # deferred: the parent is down
                state.parent = None
            if state.former_parent is not None:
                if state.former_parent == state.parent:
                    state.former_parent = None
                elif believes_alive(state.former_parent):
                    send_app(state.former_parent, self.name, "leave",
                             *_named(state.topic))
                    state.former_parent = None
            if state.detached():
                # The parent died, or the original JOIN/parent_set message
                # was lost.  Re-route a JOIN toward the rendezvous.
                self._route_join(node, state)
            if state.is_root and (state.member or children):
                # Root re-anchor: after a crash-recovery race left a second
                # root in the tree, the join routes to the rendezvous, which
                # adopts us and demotes us to child.  At the true rendezvous
                # (no next hop, the route's own memoized resolution) it would
                # deliver here and change nothing but the load count.
                if node._next_hop(state.key, state.scope) is not None:
                    self._route_join(node, state)
                elif self.rebalancer is not None:
                    self.rebalancer.record(state.topic)
            if state.parent is not None and (state.local or state.child_acc):
                self._repush_all(node, state)
        if self.rebalancer is not None:
            self.rebalancer.replica_maintain(node)
            self.rebalancer.tick(node)

    # ------------------------------------------------------------------
    # Pastry upcalls
    # ------------------------------------------------------------------
    def forward(self, node: PastryNode, key: NodeId, msg: Message, next_hop: NodeRef) -> bool:
        """Pastry upcall: intercept JOINs and in-tree anycasts mid-route."""
        data = msg.payload["data"]
        op = data["op"]
        if op == "join":
            if self.rebalancer is not None:
                self.rebalancer.record(data["topic"])
            if not self._adopt_joiner(node, data):
                return False  # adopted by a node already in the tree
            if data["child"][1] == node.address:
                return True  # our own join routes on as built
            # We adopted the joiner and are not in the tree ourselves: the
            # join continues on our behalf, in a copy that names us.
            node.forward_copy(msg, next_hop,
                              {**data, "child": self._packed_self(node)})
            return False
        if op == "anycast":
            state = self._topics.get(data["topic"])
            if state is not None and state.in_tree():
                if self.rebalancer is not None:
                    self.rebalancer.record(data["topic"])
                self._anycast_visit(node, data, self._data_size(msg))
                return False
        return True

    def deliver(self, node: PastryNode, key: NodeId, msg: Message) -> None:
        """Pastry upcall at the rendezvous root: joins, multicasts, probes."""
        data = msg.payload["data"]
        state = self.topic_state(data["topic"], data.get("scope"))
        if self.rebalancer is not None:
            self.rebalancer.record(data["topic"])
        state.is_root = True
        op = data["op"]
        if op == "anycast":  # the walk starts here, sized as it arrived
            self._anycast_visit(node, data, self._data_size(msg))
            return
        handler = self.routed_handlers.get(op)
        if handler is not None:
            handler(node, data, msg.payload["origin"])

    def _data_size(self, msg: Message) -> int:
        """The size of a routed message's ``data``: its size less the
        route envelope."""
        return msg.size - route_envelope_size(self.name, msg.payload["scope"])

    # ------------------------------------------------------------------
    # Direct messages
    # ------------------------------------------------------------------
    def host_message(self, node: PastryNode, msg: Message) -> None:
        """Direct tree traffic: parent links, dissemination, walks, pushes.

        Unknown kinds are ignored: live frames arrive from outside the
        process.
        """
        payload = msg.payload
        data = payload["data"]
        if self.rebalancer is not None:
            topic = data.get("topic")
            if topic is not None:
                self.rebalancer.record(topic)
            else:  # a roll-up batch names one topic per update
                for update in data.get("updates", ()):
                    self.rebalancer.record(update["topic"])
        kind = payload["kind"]
        if kind == "anycast_walk" or (
                kind == "anycast_divert" and self.rebalancer is not None
                and (state := self._topics.get(data["topic"])) is not None
                and state.in_tree()):
            # The walk carries its measured size: the next hop's data is
            # what arrived plus what this hop appends.  A diverted walk
            # starts here, at a replica in the tree (elsewhere the
            # rebalancer re-routes it).
            self._anycast_visit(node, data, msg.size - _WALK_ENVELOPES[kind])
            return
        handler = self.direct_handlers.get(kind)
        if handler is not None:
            handler(node, data, payload["origin"])

    # ------------------------------------------------------------------
    # Routed-kind handlers (run at the rendezvous root, after deliver()
    # has marked this node root)
    # ------------------------------------------------------------------
    def _on_agg_get(self, node: PastryNode, data: Dict[str, Any], origin: int) -> None:
        state = self._topics[data["topic"]]
        reply = {
            "request_id": data["request_id"],
            "values": self._finalized(state, data["names"]),
            "topic": state.topic,
        }
        if self.rebalancer is not None:
            # Advertise the replica set so the reader diverts its next
            # read; an empty list actively clears stale client hints.
            reply["replicas"] = sorted(state.replicas)
        node.send_app(data["origin"], self.name, "agg_value", reply)

    def _finalized(self, state: TopicState, agg_names) -> Dict[str, Any]:
        """Finalized answers by aggregate name, from this node's pushed
        subtree state; a function this node lacks answers None."""
        values = {}
        for name in agg_names:
            fn = self.functions.get(name)
            values[name] = None if fn is None else fn.finalize(self._own_acc(state, name))
        return values

    # ------------------------------------------------------------------
    # Direct-kind handlers
    # ------------------------------------------------------------------
    def _on_mcast(self, node: PastryNode, data: Dict[str, Any], origin: int) -> None:
        """``mcast`` at the root and ``mcast_down`` below it."""
        self._disseminate(node, self.topic_state(data["topic"]), data["body"])

    def _on_anycast_result(self, node: PastryNode, data: Dict[str, Any],
                           origin: int) -> None:
        # A late, duplicated or unknown reply is ignored.
        self.requests.answer(data["request_id"], {
            **data["state"], "satisfied": data["satisfied"],
            "visited_members": data["visited_members"]})

    def _on_agg_value(self, node: PastryNode, data: Dict[str, Any], origin: int) -> None:
        if self.rebalancer is not None and "replicas" in data:
            # The answerer (root or replica) piggybacks the live replica
            # set so the next read skips the hot root.
            self.rebalancer.learn_replicas(data["topic"], data["replicas"])
        self.requests.answer(data["request_id"], data["values"])

    def _on_leave(self, node: PastryNode, data: Dict[str, Any], origin: int) -> None:
        state = self._topics.get(data["topic"])
        if state is not None:
            self._drop_child(node, state, origin)
            self._maybe_prune(node, state)

    def _on_child_probe(self, node: PastryNode, data: Dict[str, Any],
                        origin: int) -> None:
        # A node that lists us as its child asks for confirmation.  If it
        # is not our current parent (we re-homed while it was down), tell
        # it to drop us — its copy of our accumulator is stale.
        state = self._topics.get(data["topic"])
        if state is None or state.parent != origin:
            node.send_app(origin, self.name, "leave", {"topic": data["topic"]})

    # ------------------------------------------------------------------
    # Join / tree plumbing
    # ------------------------------------------------------------------
    def _packed_self(self, node: PastryNode):
        return (node.node_id.value, node.address, node.site.index)

    def _route_join(self, node: PastryNode, state: TopicState) -> None:
        """Route a JOIN for ``state``'s topic toward its rendezvous."""
        node.route(state.key, self.name, {"op": "join", "topic": state.topic,
                                          "scope": state.scope,
                                          "child": self._packed_self(node)},
                   scope=state.scope)

    def _adopt_joiner(self, node: PastryNode, data: Dict[str, Any],
                      origin: Optional[int] = None) -> bool:
        """A JOIN reached us — mid-route or, at the root, as the ``join``
        handler: adopt its sender.  True means the join goes on: we are
        its origin, or a forwarder not yet in the tree, which continues
        joining on its own behalf (``forward``).  ``data`` is not
        changed."""
        topic = data["topic"]
        child_id, child_addr, child_site = data["child"]
        state = self.topic_state(topic, data.get("scope"))
        if child_addr == node.address:
            return True  # we are the origin; nothing to adopt
        self._add_child(node, state, NodeRef(NodeId(child_id), child_addr, child_site))
        return state.parent is None and not state.is_root

    def _add_child(self, node: PastryNode, state: TopicState, ref: NodeRef) -> None:
        if ref.address == node.address:
            return
        state.children[ref.address] = ref
        node.send_app(ref.address, self.name, "parent_set", *_named(state.topic))

    def _drop_child(self, node: PastryNode, state: TopicState, address: int) -> None:
        state.children.pop(address, None)
        # A replica that stops being a child stops being a replica.
        state.replicas.pop(address, None)
        changed = False
        for child_map in state.child_acc.values():
            if address in child_map:
                del child_map[address]
                changed = True
        if changed:
            self._mark_dirty(node, state)

    def _on_parent_set(self, node: PastryNode, data: Dict[str, Any],
                       parent_addr: int) -> None:
        topic = data["topic"]
        state = self.topic_state(topic)
        if parent_addr == node.address:
            return
        if state.parent is not None and state.parent != parent_addr:
            # Reparented: the old parent must drop our accumulator or it
            # will double-count this subtree against the new path.
            self._goodbye(node, state)
        if state.former_parent == parent_addr:
            state.former_parent = None
        state.parent = parent_addr
        state.is_root = False
        self._repush_all(node, state)

    def _maybe_prune(self, node: PastryNode, state: TopicState) -> None:
        """Detach from parent if we are a childless, memberless non-root."""
        if state.member or state.children or state.is_root:
            return
        if state.parent is not None:
            self._goodbye(node, state)
            state.parent = None

    def _goodbye(self, node: PastryNode, state: TopicState) -> None:
        """Tell the parent we are about to detach from to drop us.  One
        that is down right now would keep this branch's accumulator when
        it recovers (over-count until the next anti-entropy round), so its
        goodbye is deferred: maintain() sends the leave once
        ``former_parent`` is reachable."""
        if node.believes_alive(state.parent):
            node.send_app(state.parent, self.name, "leave", *_named(state.topic))
        else:
            state.former_parent = state.parent

    # ------------------------------------------------------------------
    # Multicast
    # ------------------------------------------------------------------
    def _disseminate(self, node: PastryNode, state: TopicState, body: Dict[str, Any]) -> None:
        if state.member and self.multicast_handler is not None:
            if self.recorder.enabled:
                self.recorder.instant(
                    "scribe.mcast_deliver", category="scribe", topic=state.topic,
                    site=node.site.name, addr=node.address)
            self.multicast_handler(node, state.topic, body)
        for address in list(state.children):
            if node.believes_alive(address):
                node.send_app(address, self.name, "mcast_down",
                              {"topic": state.topic, "body": body})
            else:
                self._drop_child(node, state, address)

    # ------------------------------------------------------------------
    # Anycast (distributed DFS, paper §II-B3 and §III-D step 4)
    # ------------------------------------------------------------------
    def _anycast_visit(self, node: PastryNode, data: Dict[str, Any],
                       size: int) -> None:
        """One DFS step, for an ``anycast`` at its first in-tree node and
        for every ``anycast_walk`` (or in-tree ``anycast_divert``) hop.

        ``data`` is never mutated: a hop that adds itself forwards a new
        dict.  ``size`` is the size of ``data`` as it arrived; it travels
        on as the next hop's size, grown by 8 per appended address and by
        the visitor's change to the state when it replaced it.
        """
        topic = data["topic"]
        state = self.topic_state(topic)
        visited = data["visited"]
        if node.address not in visited:
            satisfied = False
            members = data["visited_members"]
            carried = data["state"]
            if state.member:
                members += 1
                if self.anycast_visitor is not None:
                    carried, satisfied = self.anycast_visitor(
                        node, topic, carried)
                if self.recorder.enabled:
                    self.recorder.instant(
                        "scribe.anycast_visit", category="scribe", topic=topic,
                        site=node.site.name, addr=node.address,
                        satisfied=satisfied, step="member_search")
            size += 8  # the appended address
            if carried is not data["state"]:
                size += (_estimate_size(carried)
                         - _estimate_size(data["state"]))
            data = {**data, "visited": visited + [node.address],
                    "visited_members": members, "state": carried}
            if satisfied:
                self._anycast_reply(node, data, satisfied=True)
                return
            visited = data["visited"]
        # Continue DFS: first unvisited live child, else climb to the parent.
        for address in list(state.children):
            if address in visited:
                continue
            if not node.believes_alive(address):
                self._drop_child(node, state, address)
                continue
            node.send_app(address, self.name, "anycast_walk", data, size)
            return
        if state.parent is not None and node.believes_alive(state.parent):
            node.send_app(state.parent, self.name, "anycast_walk", data, size)
            return
        # Root with everything visited (or detached): exhausted.
        self._anycast_reply(node, data, satisfied=False)

    def _anycast_reply(self, node: PastryNode, data: Dict[str, Any], satisfied: bool) -> None:
        node.send_app(data["origin"], self.name, "anycast_result", {
            "request_id": data["request_id"],
            "state": data["state"],
            "satisfied": satisfied,
            "visited_members": data["visited_members"],
        })

    # ------------------------------------------------------------------
    # Aggregation (RBAY's extension, §II-B3)
    # ------------------------------------------------------------------
    def _own_acc(self, state: TopicState, agg_name: str) -> Any:
        """Roll this node's subtree accumulator up from its own value and
        its children's pushed accumulators (one :meth:`fold`); None for an
        unknown function."""
        fn = self.functions.get(agg_name)
        if fn is None:
            return None
        local = state.local
        children = state.child_acc.get(agg_name)
        return fn.fold((local[agg_name],) if state.member and agg_name in local else (),
                       () if children is None else children.values())

    def _mark_dirty(self, node: PastryNode, state: TopicState,
                    names: Optional[List[str]] = None) -> None:
        """Mark each known one of ``names`` (default: every aggregate the
        topic carries) dirty."""
        if names is None:
            names = state.agg_names()
        functions = self.functions
        for name in names:
            if name in functions:
                self._mark_one(node, state, name)

    def _mark_one(self, node: PastryNode, state: TopicState, name: str) -> None:
        """The one dirty-marking step: mark the known aggregate ``name``
        dirty, list its topic and arm the flush timer unless it is armed."""
        state.dirty.add(name)
        self._dirty_topics[state.topic] = state
        if not self._flush_armed:
            self._flush_armed = True
            self.sim.post(self.agg_flush_ms, self._flush_all, node)

    def _flush_all(self, node: PastryNode) -> None:
        """Node-level debounced flush: roll every dirty topic's changed
        accumulators into one ``agg_push_batch`` message per parent.

        A burst of leaf updates inside the flush window therefore costs
        each interior node one upstream message per interval, however many
        topics and aggregates changed.  Each dirty accumulator is folded
        once and recorded in ``last_pushed`` when it changed; it is sent
        only when the parent is believed alive.
        """
        self._flush_armed = False
        dirty_topics, self._dirty_topics = self._dirty_topics, {}
        batches: Dict[int, List[Dict[str, Any]]] = {}
        sizes: Dict[int, int] = {}
        own_acc = self._own_acc
        for state in dirty_topics.values():
            names = sorted(state.dirty)
            state.dirty.clear()
            parent = state.parent
            if parent is not None:
                alive = node.believes_alive(parent)
                topic = state.topic
                head = _PUSH_UPDATE_KEYS + _estimate_size(topic)
                last_pushed = state.last_pushed
                for agg_name in names:
                    acc = own_acc(state, agg_name)
                    if last_pushed.get(agg_name) == acc:
                        continue
                    last_pushed[agg_name] = acc
                    if not alive:
                        continue
                    updates = batches.get(parent)
                    if updates is None:
                        updates = batches[parent] = []
                        sizes[parent] = _PUSH_BATCH_BASE
                    updates.append({"topic": topic, "agg": agg_name, "acc": acc})
                    sizes[parent] += (head + _estimate_size(agg_name)
                                      + _estimate_size(acc))
            if state.replicas:
                # Root snapshot coherence: dirty aggregates at a replicated
                # root re-sync the replicas on the same debounce cadence as
                # upward pushes (maintain() adds the anti-entropy backstop).
                self.rebalancer.sync_replicas(node, state)
        if not batches:
            return
        packed = self._packed_self(node)
        for parent, updates in batches.items():
            node.send_app(parent, self.name, "agg_push_batch", {
                "child": packed, "updates": updates,
            }, sizes[parent])

    def _repush_all(self, node: PastryNode, state: TopicState) -> None:
        state.last_pushed.clear()
        self._mark_dirty(node, state)

    def _on_agg_push_batch(self, node: PastryNode, data: Dict[str, Any],
                           child_addr: int) -> None:
        """Install a child's debounced batch, one update at a time: adopt
        the pusher where it is not a listed child, store its accumulator
        and mark the aggregate dirty here."""
        child = data["child"]
        topics = self._topics
        functions = self.functions
        mark_one = self._mark_one
        for update in data["updates"]:
            topic = update["topic"]
            state = topics.get(topic)
            if state is None:
                state = self.topic_state(topic)
            if child_addr not in state.children:
                if not state.in_tree():
                    # Pruned vestige: _maybe_prune dissolved this branch and
                    # we hold no live role in the topic.  Re-adopting would
                    # resurrect an empty tree nothing can prune again (and
                    # the pusher would keep feeding a dead branch).  Tell it
                    # the parent is gone so maintain() re-joins it at the
                    # live rendezvous instead.
                    node.send_app(child_addr, self.name, "parent_gone",
                                  *_named(state.topic))
                    continue
                # A pusher we do not list as a child: it kept its parent
                # pointer across our crash-recovery (or we pruned it while
                # it was down).  Re-adopt it so pruning and child probes see
                # it again.
                child_id, _, child_site = child
                self._add_child(node, state,
                                NodeRef(NodeId(child_id), child_addr, child_site))
            agg_name = update["agg"]
            per_child = state.child_acc.get(agg_name)
            if per_child is None:
                per_child = state.child_acc[agg_name] = {}
            per_child[child_addr] = update["acc"]
            if agg_name in functions:
                mark_one(node, state, agg_name)

    def _on_parent_gone(self, node: PastryNode, data: Dict[str, Any],
                        origin: int) -> None:
        """Our parent disowned us (it pruned its local topic state): drop
        the stale parent pointer and let maintain() re-join us through the
        live rendezvous."""
        state = self._topics.get(data["topic"])
        if state is not None and state.parent == origin:
            state.parent = None

    def rejoin_detached(self, node: PastryNode) -> None:
        """Re-route a JOIN for every topic this node should be wired into
        but is not (crash-recovery path: joins attempted while the host was
        down were suppressed by the network, leaving ``member=True`` states
        with no tree link until the next attribute change)."""
        for state in list(self._topics.values()):
            if state.detached():
                self._route_join(node, state)


#: The envelopes of the two kinds that carry a walk: an arrived walk's data
#: is its size less its kind's.
_WALK_ENVELOPES = {kind: envelope_size(ScribeApplication.name, kind)
                   for kind in ("anycast_walk", "anycast_divert")}
