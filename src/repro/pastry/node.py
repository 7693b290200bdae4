"""A Pastry node: prefix routing, application upcalls, join and repair."""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional

from repro.net.message import Message
from repro.net.network import Host
from repro.net.site import Site
from repro.obs.spans import NULL_RECORDER
from repro.pastry.leafset import DEFAULT_LEAF_SET_SIZE, LeafSet
from repro.pastry.nodeid import NodeId
from repro.pastry.routing_table import NodeRef, RoutingTable


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
    #: overwritten per instance by the plane when tracing is enabled.
    recorder = NULL_RECORDER

    def __init__(
        self,
        node_id: NodeId,
        site: Site,
        leaf_set_size: int = DEFAULT_LEAF_SET_SIZE,
    ):
        super().__init__(site)
        self.node_id = node_id
        self.leaf_set = LeafSet(node_id, size=leaf_set_size)
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
        the local site (administrative isolation, paper §III-E).
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
        self._handle_route(msg, local=True)

    def send_app(self, dst_address: int, app_name: str, kind: str, payload: Dict[str, Any]) -> None:
        """Direct point-to-point message to an application on a known host."""
        self.send(dst_address, Message(kind="pastry.direct", payload={
            "app": app_name,
            "kind": kind,
            "data": payload,
            "origin": self.address,
        }))

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
            # Leaf-set exchange: reply with our neighborhood (global and
            # site-scoped, like announce) so the asker can refill holes
            # left by failed nodes and relearn recovered same-site peers.
            neighbors = {ref.address: ref for ref in self.leaf_set.members()}
            if self.site_leaf_set is not None:
                for ref in self.site_leaf_set.members():
                    neighbors.setdefault(ref.address, ref)
            refs = [(r.node_id.value, r.address, r.site_index)
                    for r in neighbors.values()]
            refs.append((self.node_id.value, self.address, self.site.index))
            self.send(msg.payload["origin"], Message(kind="pastry.ls_rep",
                                                     payload={"refs": refs}))
        elif kind == "pastry.ls_rep":
            for id_value, address, site_index in msg.payload["refs"]:
                # The replier's own state may still hold failed nodes; the
                # liveness probe (connection attempt) filters them here.
                if not self.believes_alive(address):
                    continue
                peer_site = self.network.host(address).site
                proximity = self.network.latency.nominal_one_way_ms(self.site, peer_site)
                self.add_peer(NodeRef(NodeId(id_value), address, site_index, proximity))
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
        for ref in list(self.leaf_set.members()):
            if not self.believes_alive(ref.address):
                self.remove_peer(ref.address)
                removed += 1
        survivors = self.leaf_set.members()
        if removed:
            for ref in survivors[:2] + survivors[-2:]:
                self.send(ref.address, Message(kind="pastry.ls_req",
                                               payload={"origin": self.address}))
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
                                               payload={"origin": self.address}))
            self.stats["stabilize_exchanges"] += 1
        return removed

    def _handle_route(self, msg: Message, local: bool) -> None:
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
        msg.hops += 1
        self.stats["route_forwarded"] += 1
        self.send(next_hop.address, msg)

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

    def closest_neighbors(self, key: NodeId, count: int, scope: str = "global",
                          exclude: Optional[set] = None) -> List[NodeRef]:
        """The ``count`` live leaf-set members numerically closest to ``key``.

        Replica placement for the hot-tree rebalancer: these are the same
        neighbors a converged overlay would anchor the key at if this node
        left, so repeated selections at a stable ring pick a stable replica
        set.  Ties break toward the numerically smaller id, mirroring the
        rendezvous rule.
        """
        leaf_set, _ = self._state(scope)
        seen = {self.address} | (set(exclude) if exclude else set())
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

    def enable_site_scope(self, leaf_set_size: int = DEFAULT_LEAF_SET_SIZE) -> None:
        """Allocate the site-scoped routing state (administrative isolation)."""
        if self.site_leaf_set is None:
            self.site_leaf_set = LeafSet(self.node_id, size=leaf_set_size)
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
        neighbors = {ref.address: ref for ref in self.leaf_set.members()}
        if self.site_leaf_set is not None:
            for ref in self.site_leaf_set.members():
                neighbors.setdefault(ref.address, ref)
        refs = [(r.node_id.value, r.address, r.site_index)
                for r in neighbors.values()]
        refs.append((self.node_id.value, self.address, self.site.index))
        for address in neighbors:
            self.send(address, Message(kind="pastry.ls_rep",
                                       payload={"refs": refs}))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PastryNode {self.node_id.hex()[:8]}… addr={self.address} site={self.site.name}>"
