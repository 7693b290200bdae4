"""A Pastry node: prefix routing, application upcalls, join and repair."""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import Any, Dict, List, Optional, Tuple

from repro.net.message import Message, _estimate_size
from repro.net.network import Host, NetworkError
from repro.net.site import Site
from repro.obs.spans import NULL_RECORDER
from repro.pastry.leafset import LeafSet
from repro.pastry.nodeid import NodeId
from repro.pastry.routing_table import NodeRef, RoutingTable


@cache
def envelope_size(app_name: str, kind: str) -> int:
    """Wire size of a ``pastry.direct`` message for ``(app, kind)``
    without its ``data``: a direct message's size is this plus the size
    of its ``data`` (the origin is an address, an 8-byte number)."""
    return Message(kind="pastry.direct", payload={
        "app": app_name, "kind": kind, "data": {}, "origin": 0}).size_bytes()


@cache
def route_envelope_size(app_name: str, scope: str) -> int:
    """Wire size of a ``pastry.route`` message for ``(app, scope)``
    without its ``data``: a routed message's size is this plus the size
    of its ``data`` (the key and the origin are 8-byte numbers)."""
    return Message(kind="pastry.route", payload={
        "key": 0, "app": app_name, "data": {}, "origin": 0,
        "scope": scope}).size_bytes()


#: Wire size of a ``pastry.ls_req`` (its one field is an address).
_LS_REQ_SIZE = Message(kind="pastry.ls_req", payload={"origin": 0}).size_bytes()
#: Wire size of a ``pastry.ls_rep`` with no refs, and what each ref adds
#: (a ref is three numbers): a reply is sized as it is built.
_LS_REP_BASE = Message(kind="pastry.ls_rep", payload={"refs": []}).size_bytes()
_LS_REP_PER_REF = Message(kind="pastry.ls_rep",
                          payload={"refs": [(0, 0, 0)]}).size_bytes() - _LS_REP_BASE


class Application:
    """Base class for applications layered over Pastry (e.g. Scribe).

    ``deliver`` fires at the key's root node; ``forward`` fires at every
    intermediate node (including the origin) and may return ``False`` to
    consume the message — the hook Scribe uses to intercept JOINs.
    """

    #: Name used to look the application up on each node.
    name: str = "app"

    def deliver(self, node: "PastryNode", key: NodeId, msg: Message) -> None:
        raise NotImplementedError

    def forward(self, node: "PastryNode", key: NodeId, msg: Message, next_hop: NodeRef) -> bool:
        return True

    def host_message(self, node: "PastryNode", msg: Message) -> None:
        """Direct (non-routed) message addressed to this application."""
        raise NotImplementedError(f"{self.name} got unexpected direct message {msg.kind}")


class PastryNode(Host):
    """One overlay node.

    The node is a network :class:`Host`; the overlay routes by repeatedly
    forwarding ``pastry.route`` messages, resolving the next hop from the
    leaf set when the key is covered and the routing table otherwise
    (paper §II-B1).
    """

    #: Span recorder shared by the plane (class default = tracing off);
    #: the plane assigns its ``obs.recorder`` to every node it wires.
    recorder = NULL_RECORDER

    def __init__(self, node_id: NodeId, site: Site):
        super().__init__(site)
        self.node_id = node_id
        self.leaf_set = LeafSet(node_id)
        self.routing_table = RoutingTable(node_id)
        self.apps: Dict[str, Application] = {}
        self.stats: Counter = Counter()
        # Site-scoped state for administrative isolation (populated by the
        # isolation layer; None when isolation is disabled).
        self.site_leaf_set: Optional[LeafSet] = None
        self.site_routing_table: Optional[RoutingTable] = None
        # Round counter for the periodic neighbor exchange (alternates the
        # exchange partner between the leaf set's two extremes).
        self._exchange_round = 0
        # Memoized next-hop resolutions, keyed by key value, one cache per
        # scope.  Each entry records the (leaf set + routing table) version
        # sum it was computed under; both counters are monotonic, so an
        # equal sum proves the structures are untouched since the entry was
        # stored.  Entries additionally recheck destination liveness on
        # every hit (a peer can crash without mutating our state).
        self._hop_cache: Dict[int, tuple] = {}
        self._site_hop_cache: Dict[int, tuple] = {}
        # Per leaf-set-exchange sender: the (sender's neighborhood version,
        # our ingest stamp) its last reply left behind.  A reply matching
        # both provably changes nothing and is skipped (see on_message).
        self._exchange_memo: Dict[int, Tuple[int, int]] = {}
        # The last neighborhood() built, keyed by the leaf sets' versions.
        self._neighborhood_memo: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Application registry
    # ------------------------------------------------------------------
    def register_app(self, app: Application) -> None:
        self.apps[app.name] = app

    def app(self, name: str) -> Application:
        return self.apps[name]

    def ref(self, proximity_ms: float = 0.0) -> NodeRef:
        return NodeRef(self.node_id, self.address, self.site.index, proximity_ms)

    # ------------------------------------------------------------------
    # Routing API
    # ------------------------------------------------------------------
    def route(self, key: NodeId, app_name: str, payload: Dict[str, Any], scope: str = "global") -> None:
        """Route a message toward ``key``'s root (the classic Pastry primitive).

        ``scope`` selects the routing state: ``"global"`` crosses sites,
        ``"site"`` uses the site-scoped state so the message converges inside
        the local site (administrative isolation, paper §III-E).  The
        message is sized here, once (:attr:`Message.size`): every hop
        re-sends it with the size it arrived with.
        """
        msg = Message(
            kind="pastry.route",
            payload={
                "key": key.value,
                "app": app_name,
                "data": payload,
                "origin": self.address,
                "scope": scope,
            },
        )
        msg.size = route_envelope_size(app_name, scope) + _estimate_size(payload)
        self._handle_route(msg, local=True)

    def send_app(self, dst_address: int, app_name: str, kind: str,
                 payload: Dict[str, Any], size: Optional[int] = None) -> None:
        """Direct point-to-point message to an application on a known host.

        The message is sized as its ``(app, kind)`` envelope plus the size
        of ``payload``: ``size`` when the caller knows it (the anycast
        walk does), else the walk of ``payload`` alone.
        """
        msg = Message(kind="pastry.direct", payload={
            "app": app_name,
            "kind": kind,
            "data": payload,
            "origin": self.address,
        })
        network = self.network
        if network is None:
            raise NetworkError("host not attached to a network")
        network.send(self, dst_address, msg, envelope_size(app_name, kind)
                     + (_estimate_size(payload) if size is None else size))

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def on_message(self, msg: Message) -> None:
        """Network entry point: dispatch routed/direct/repair messages.

        Direct application traffic (aggregation pushes, probes) dominates
        routed traffic in steady state, so it is tested first.
        """
        kind = msg.kind
        if kind == "pastry.direct":
            app = self.apps.get(msg.payload["app"])
            if app is not None:
                app.host_message(self, msg)
            else:
                self.stats["unknown_app"] += 1
        elif kind == "pastry.route":
            self._handle_route(msg, local=False)
        elif kind == "pastry.ls_req":
            # Leaf-set exchange: reply with our neighborhood so the asker
            # can refill holes left by failed nodes and relearn recovered
            # same-site peers.
            refs, size, version = self.neighborhood()
            reply = Message(kind="pastry.ls_rep", payload={"refs": refs})
            reply.state_version = version
            self.send(msg.payload["origin"], reply, size)
        elif kind == "pastry.ls_rep":
            # Ingest is idempotent: re-offering the refs of one reply to the
            # state they produced changes nothing (a leaf-set side keeps the
            # nearest distinct distances, a routing slot the strictly
            # smallest proximity, a function of the two sites, and liveness
            # stands while the epoch does).  So a reply built from the
            # neighborhood version this sender's last reply carried, met by
            # the stamp that ingest left, is skipped.  Decoded copies carry
            # no version and are always ingested.
            version = msg.state_version
            if version is not None:
                key = (version, self._ingest_stamp())
                if self._exchange_memo.get(msg.src) == key:
                    return
            believes_alive = self.believes_alive
            host = self.network.host
            nominal_one_way_ms = self.network.latency.nominal_one_way_ms
            site = self.site
            add_peer = self.add_peer
            for id_value, address, site_index in msg.payload["refs"]:
                # The replier's own state may still hold failed nodes; the
                # liveness probe (connection attempt) filters them here.
                if believes_alive(address):
                    proximity = nominal_one_way_ms(site, host(address).site)
                    add_peer(NodeRef(NodeId(id_value), address, site_index,
                                     proximity))
            if version is not None:
                self._exchange_memo[msg.src] = (version, self._ingest_stamp())
        else:
            self.stats["unknown_kind"] += 1

    # ------------------------------------------------------------------
    # Stabilization (leaf-set repair under churn)
    # ------------------------------------------------------------------
    def stabilize(self) -> int:
        """One round of leaf-set repair: drop dead members, then ask the
        nearest surviving neighbors for their neighborhoods to refill.

        Returns the number of dead entries removed.  Pastry repairs leaf
        sets "by contacting the live node with the largest index on the
        side of the failed node"; we ask the closest survivor on each side,
        which converges to the same state in the simulator.
        """
        removed = 0
        survivors = self.leaf_set.members()  # a fresh list: safe to remove
        for ref in survivors:
            if not self.believes_alive(ref.address):
                self.remove_peer(ref.address)
                removed += 1
        if removed:
            survivors = self.leaf_set.members()
            for ref in survivors[:2] + survivors[-2:]:
                self.send(ref.address, Message(kind="pastry.ls_req",
                                               payload={"origin": self.address}),
                          _LS_REQ_SIZE)
            self.stats["stabilize_repairs"] += removed
        if survivors:
            # Periodic neighbor exchange, one partner per round.  Removal
            # alone cannot restore knowledge of a node that crash-recovered
            # while we were also down: its recovery announce went to *its*
            # remembered neighbors, which no longer include us (we were dead
            # and had been purged).  A standing low-rate pull through a
            # mutual neighbor re-links the two within a few rounds.
            self._exchange_round += 1
            partner = (survivors[0] if self._exchange_round % 2
                       else survivors[-1])
            self.send(partner.address, Message(kind="pastry.ls_req",
                                               payload={"origin": self.address}),
                      _LS_REQ_SIZE)
            self.stats["stabilize_exchanges"] += 1
        return removed

    def _handle_route(self, msg: Message, local: bool) -> None:
        """One routing step.  The forward re-sends ``msg`` with
        :attr:`Message.size`, the size its origin measured: no hop changes
        a payload's size (Scribe's mid-route JOIN adoption forwards a copy
        that swaps one packed ref, three numbers, for another)."""
        key = NodeId(msg.payload["key"])
        app = self.apps.get(msg.payload["app"])
        if app is None:
            self.stats["unknown_app"] += 1
            return
        if not local:
            self.stats["route_received"] += 1
            if self.recorder.enabled:
                self.recorder.instant(
                    "pastry.hop", category="pastry",
                    site=self.site.name, addr=self.address,
                    hops=msg.hops, app=msg.payload["app"],
                )
        scope = msg.payload.get("scope", "global")
        next_hop = self._next_hop(key, scope)
        if next_hop is None:
            app.deliver(self, key, msg)
            return
        if not app.forward(self, key, msg, next_hop):
            return
        self._forward(msg, next_hop)

    def _forward(self, msg: Message, next_hop: NodeRef) -> None:
        msg.hops += 1
        self.stats["route_forwarded"] += 1
        network = self.network
        if network is None:
            raise NetworkError("host not attached to a network")
        network.send(self, next_hop.address, msg, msg.size)

    def forward_copy(self, msg: Message, next_hop: NodeRef,
                     data: Dict[str, Any]) -> None:
        """Route on, to ``next_hop``, a copy of the routed ``msg`` that
        carries ``data`` in place of its own: an application whose
        ``forward`` changes a message in flight sends this and consumes
        the original, which stays as it arrived.  The copy keeps the id,
        hops, trace and size (``data`` must be the size of the data it
        replaces)."""
        copy = Message(msg.kind, {**msg.payload, "data": data}, hops=msg.hops,
                       msg_id=msg.msg_id,
                       trace=None if msg.trace is None else list(msg.trace),
                       trace_ctx=msg.trace_ctx)
        copy.size = msg.size
        self._forward(copy, next_hop)

    # ------------------------------------------------------------------
    # Next-hop resolution
    # ------------------------------------------------------------------
    def _state(self, scope: str):
        if scope == "site":
            if self.site_leaf_set is None or self.site_routing_table is None:
                raise RuntimeError(
                    f"site-scoped routing requested on node {self.node_id!r} "
                    "but administrative isolation is not configured"
                )
            return self.site_leaf_set, self.site_routing_table
        return self.leaf_set, self.routing_table

    #: Hop-cache size bound; crossed only by workloads routing to an
    #: unusual number of distinct keys, which simply restart the memo.
    _HOP_CACHE_LIMIT = 4096

    def _next_hop(self, key: NodeId, scope: str = "global") -> Optional[NodeRef]:
        """Resolve the next hop, repairing around dead entries.

        Returns None when this node is the key's root (deliver locally).

        Resolutions are memoized per key: with the routing structures
        unchanged (version sum equal) and the cached hop still reachable,
        a from-scratch resolve provably returns the same hop — ``covers``/
        ``closer_than_owner``/``next_hop`` are pure functions of the
        structures, and the repair loops only engage when the resolved
        candidate is dead (which the hit path rechecks).  Rare-case hops
        are never cached: that path skips dead nodes *without* mutating
        state, so a node resurrecting at its old address could change the
        answer while the version sum stays put.
        """
        if scope == "global":
            leaf_set, table = self.leaf_set, self.routing_table
            cache = self._hop_cache
        else:
            leaf_set, table = self._state(scope)
            cache = self._site_hop_cache
        version = leaf_set.version + table.version
        cached = cache.get(key.value)
        if cached is not None:
            if cached[0] == version:
                hop = cached[1]
                if hop is None:
                    return None
                if self.believes_alive(hop.address):
                    return hop
            del cache[key.value]
        if key == self.node_id:
            hop: Optional[NodeRef] = None
        elif leaf_set.covers(key):
            candidate = leaf_set.closer_than_owner(key)
            while (candidate is not None
                   and not self.believes_alive(candidate.address)):
                leaf_set.remove(candidate.address)
                table.remove(candidate.address)
                candidate = leaf_set.closer_than_owner(key)
            hop = candidate
        else:
            entry = table.next_hop(key)
            if entry is not None and self.believes_alive(entry.address):
                hop = entry
            else:
                if entry is not None:
                    table.remove(entry.address)
                # Rare case: no table entry — take any known node that makes
                # strict progress (longer or equal prefix and numerically
                # closer).  Not cacheable (see docstring).
                return self._rare_case_hop(key, leaf_set, table)
        if len(cache) >= self._HOP_CACHE_LIMIT:
            cache.clear()
        # Repairs above may have bumped the versions; stamp the entry with
        # the post-repair sum so it is valid from this instant on.
        cache[key.value] = (leaf_set.version + table.version, hop)
        return hop

    def _rare_case_hop(self, key: NodeId, leaf_set: LeafSet, table: RoutingTable) -> Optional[NodeRef]:
        own_prefix = self.node_id.shared_prefix_len(key)
        own_dist = self.node_id.distance(key)
        best: Optional[NodeRef] = None
        best_dist = own_dist
        for ref in list(leaf_set.members()) + list(table.entries()):
            if not self.believes_alive(ref.address):
                continue
            if ref.node_id.shared_prefix_len(key) < own_prefix:
                continue
            d = ref.node_id.distance(key)
            if d < best_dist:
                best, best_dist = ref, d
        return best

    def believes_alive(self, address: int) -> bool:
        """This node's belief about whether ``address`` is up — the one
        liveness question Pastry, Scribe and the rebalancer ask.  Today the
        belief is the transport's host table (an immediate TCP connect
        succeeding or failing); it is per node so that evidence this node
        collects can replace the table without touching a caller."""
        return self.network is not None and self.network.has_host(address)

    def liveness_epoch(self) -> int:
        """Advances whenever a :meth:`believes_alive` answer may have
        changed; while it stands, every belief stands.  Today it is the
        transport's host-table epoch; evidence-fed beliefs must advance it
        whenever one of them changes."""
        return -1 if self.network is None else self.network.host_epoch

    def _ingest_stamp(self) -> int:
        """One number that moves whenever anything a leaf-set reply's
        ingest reads or writes may have moved: the sum of the monotonic
        routing-state versions (a site structure not allocated counts -1,
        so allocating one moves the sum) and the liveness epoch."""
        stamp = (self.leaf_set.version + self.routing_table.version
                 + self.liveness_epoch())
        site_leaf_set, site_table = self.site_leaf_set, self.site_routing_table
        stamp += -1 if site_leaf_set is None else site_leaf_set.version
        stamp += -1 if site_table is None else site_table.version
        return stamp

    def closest_neighbors(self, key: NodeId, count: int,
                          scope: str = "global") -> List[NodeRef]:
        """The ``count`` live leaf-set members numerically closest to ``key``.

        Replica placement for the hot-tree rebalancer: these are the same
        neighbors a converged overlay would anchor the key at if this node
        left, so repeated selections at a stable ring pick a stable replica
        set.  Ties break toward the numerically smaller id, mirroring the
        rendezvous rule.
        """
        leaf_set, _ = self._state(scope)
        seen = {self.address}
        picks: List[NodeRef] = []
        for ref in sorted(leaf_set.members(),
                          key=lambda r: (r.node_id.distance(key),
                                         r.node_id.value)):
            if ref.address in seen or not self.believes_alive(ref.address):
                continue
            seen.add(ref.address)
            picks.append(ref)
            if len(picks) >= count:
                break
        return picks

    # ------------------------------------------------------------------
    # State maintenance
    # ------------------------------------------------------------------
    def add_peer(self, ref: NodeRef) -> None:
        """Feed a discovered peer to both routing structures."""
        if ref.address == self.address:
            return
        self.leaf_set.add(ref)
        self.routing_table.add(ref)
        if ref.site_index == self.site.index:
            if self.site_leaf_set is not None:
                self.site_leaf_set.add(ref)
            if self.site_routing_table is not None:
                self.site_routing_table.add(ref)

    def remove_peer(self, address: int) -> None:
        """Purge a (failed) peer from every routing structure."""
        self.leaf_set.remove(address)
        self.routing_table.remove(address)
        if self.site_leaf_set is not None:
            self.site_leaf_set.remove(address)
        if self.site_routing_table is not None:
            self.site_routing_table.remove(address)

    def enable_site_scope(self) -> None:
        """Allocate the site-scoped routing state (administrative isolation)."""
        if self.site_leaf_set is None:
            self.site_leaf_set = LeafSet(self.node_id)
            self.site_routing_table = RoutingTable(self.node_id)

    def fail(self) -> None:
        """Crash-stop this node."""
        if self.network is not None:
            self.network.detach(self)

    def announce(self) -> None:
        """Tell remembered neighbors we are (back) on the network.

        Peers purge a dead node from their routing state, and stabilization
        only *removes* entries — nothing re-adds a node that crash-recovers
        at its old address.  Sending our neighborhood as an unsolicited
        leaf-set reply makes every receiver fold us back in (the ls_rep
        handler add_peers every live ref), restoring the links needed for
        routes to reach us again.
        """
        refs, size, version = self.neighborhood()
        for _, address, _ in refs[:-1]:
            msg = Message(kind="pastry.ls_rep", payload={"refs": refs})
            msg.state_version = version
            self.send(address, msg, size)

    def neighborhood(self) -> Tuple[List[Tuple[int, int, int]], int, int]:
        """What a ``pastry.ls_rep`` from this node carries: ``(refs, size,
        version)``.

        ``refs`` packs the global and site-scoped leaf-set members, then
        this node last.  ``size`` is the reply's wire size.  ``version`` is
        the sum of the two leaf sets' monotonic versions, so an equal sum
        proves the same refs (the hop cache's argument).
        It is a pure function of the two leaf sets: built once per pair of
        versions, its ``refs`` shared read-only by every reply until then.
        """
        leaf_set, site_leaf_set = self.leaf_set, self.site_leaf_set
        key = (leaf_set.version,
               None if site_leaf_set is None else site_leaf_set.version)
        memo = self._neighborhood_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        neighbors = {ref.address: ref for ref in leaf_set.members()}
        version = leaf_set.version
        if site_leaf_set is not None:
            for ref in site_leaf_set.members():
                neighbors.setdefault(ref.address, ref)
            version += site_leaf_set.version
        refs = [(r.node_id.value, r.address, r.site_index)
                for r in neighbors.values()]
        refs.append((self.node_id.value, self.address, self.site.index))
        result = refs, _LS_REP_BASE + _LS_REP_PER_REF * len(refs), version
        self._neighborhood_memo = (key, result)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PastryNode {self.node_id.hex()[:8]}… addr={self.address} site={self.site.name}>"
