"""Overlay construction: oracle bootstrap and the message-level join protocol.

Large experiments (up to the paper's 16,000 agents) bootstrap through the
*oracle* path: leaf sets come from the sorted id ring and routing tables from
prefix buckets with proximity-aware candidate selection — exactly the state a
converged Pastry network holds, with no message exchange.  A row is chosen
once per group of nodes sharing a site and the row's leading digits, over
one candidate per site and bucket, and a site's tables share one ref per
peer: one ``add`` per slot and leaf-set entry dominates (32 × 32 nodes in
~0.12 s, 1 × 4,096 in ~0.25 s).  Protocol-fidelity tests use
:meth:`Overlay.join`, the real message-driven join (route to own id,
collect state from the path, announce to learned peers).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.net.message import Message
from repro.net.network import Network
from repro.net.site import Site, SiteRegistry
from repro.pastry.leafset import DEFAULT_LEAF_SET_SIZE
from repro.pastry.node import Application, PastryNode
from repro.pastry.nodeid import NodeId
from repro.pastry.routing_table import NodeRef
from repro.sim.engine import Simulator
from repro.sim.futures import Future
from repro.sim.random_streams import RandomStreams

#: Boundary routers elected per site (primary + backup, paper §III-E).
GATEWAYS_PER_SITE = 2


def pack_ref(ref: NodeRef) -> Tuple[int, int, int]:
    """Serialize a NodeRef for message payloads (proximity is receiver-local)."""
    return (ref.node_id.value, ref.address, ref.site_index)


class Overlay:
    """Owns the node population and the machinery to wire it together."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        streams: RandomStreams,
        registry: SiteRegistry,
        isolation: bool = False,
        node_factory=None,
    ):
        self.sim = sim
        self.network = network
        self.streams = streams
        self.registry = registry
        self.isolation = isolation
        #: Callable ``(node_id, site) -> PastryNode`` used by create_node;
        #: lets higher layers (RBAY) substitute their node subclass.
        self.node_factory = node_factory
        self.nodes: List[PastryNode] = []
        self._ids: Set[int] = set()
        #: site index -> boundary ("router") refs, primary first (§III-E).
        self.gateways: Dict[int, List[NodeRef]] = {}

    # ------------------------------------------------------------------
    # Node creation
    # ------------------------------------------------------------------
    def create_node(self, site: Site) -> PastryNode:
        """Create and attach a node with a fresh random id."""
        node_id = NodeId.random(self.streams.stream("overlay-ids"))
        while node_id.value in self._ids:
            node_id = NodeId.random(self.streams.stream("overlay-ids"))
        if self.node_factory is not None:
            node = self.node_factory(node_id, site)
        else:
            node = PastryNode(node_id, site)
        if self.isolation:
            node.enable_site_scope()
        self.network.attach(node)
        node.register_app(JoinApplication(self))
        self.nodes.append(node)
        self._ids.add(node_id.value)
        return node

    def create_population(self, per_site: int) -> List[PastryNode]:
        """Create ``per_site`` nodes at every registered site."""
        created = []
        for site in self.registry:
            for _ in range(per_site):
                created.append(self.create_node(site))
        return created

    # ------------------------------------------------------------------
    # Oracle bootstrap
    # ------------------------------------------------------------------
    def bootstrap(self) -> None:
        """Fill every node's routing state as a converged network would hold it."""
        # A ref's contents depend only on the observer's site and the peer,
        # so every table at one site holds the same object for that peer.
        refs: Dict[Tuple[int, int], NodeRef] = {}
        self._build_leaf_sets(self.nodes, False, refs)
        self._build_routing_tables(self.nodes, False, refs)
        if self.isolation:
            for site in self.registry:
                members = [n for n in self.nodes if n.site.index == site.index]
                if not members:
                    continue
                self._build_leaf_sets(members, True, refs)
                self._build_routing_tables(members, True, refs)
            self.elect_gateways()

    def _shared_ref(self, refs: Dict[Tuple[int, int], NodeRef], site: Site,
                    peer: PastryNode) -> NodeRef:
        """The one ref every observer at ``site`` holds for ``peer``."""
        ref = refs.get((site.index, peer.address))
        if ref is None:
            proximity = self.network.latency.nominal_one_way_ms(site, peer.site)
            ref = refs[site.index, peer.address] = NodeRef(
                peer.node_id, peer.address, peer.site.index, proximity)
        return ref

    def _build_leaf_sets(self, nodes: Sequence[PastryNode], site_scope: bool,
                         refs: Dict[Tuple[int, int], NodeRef]) -> None:
        ring = sorted(nodes, key=lambda n: n.node_id.value)
        n = len(ring)
        half = DEFAULT_LEAF_SET_SIZE // 2
        for i, node in enumerate(ring):
            target = node.site_leaf_set if site_scope else node.leaf_set
            for step in range(1, min(half, n - 1) + 1):
                for j in (i + step, i - step):
                    peer = ring[j % n]
                    if peer is node:
                        continue
                    target.add(self._shared_ref(refs, node.site, peer))

    def _build_routing_tables(self, nodes: Sequence[PastryNode], site_scope: bool,
                              refs: Dict[Tuple[int, int], NodeRef]) -> None:
        # Per row, group nodes by stem (their first ``row`` hex digits) and
        # then by the next digit, keeping one representative per site (the
        # first in ``nodes`` order): the candidates for each slot.
        hexes = [node.node_id.hex() for node in nodes]
        levels: List[Dict[str, Dict[str, Dict[int, PastryNode]]]] = []
        while True:
            row = len(levels)
            level: Dict[str, Dict[str, Dict[int, PastryNode]]] = {}
            for node, h in zip(nodes, hexes):
                level.setdefault(h[:row], {}).setdefault(h[row], {}).setdefault(
                    node.site.index, node)
            levels.append(level)
            if sum(map(len, level.values())) >= len(nodes) or row == 31:
                break
        # A slot's winner is its bucket's nearest site, ties to the smaller
        # id: it depends on the stem and the observer's site only, so each
        # (stem, site) group picks its row once and every member adds it,
        # skipping the column of its own next digit.
        nominal = self.network.latency.nominal_one_way_ms
        rows: Dict[Tuple[str, int], List[Tuple[str, NodeRef]]] = {}
        for node, h in zip(nodes, hexes):
            table = node.site_routing_table if site_scope else node.routing_table
            site = node.site
            for row, level in enumerate(levels):
                stem = h[:row]
                winners = rows.get((stem, site.index))
                if winners is None:
                    winners = rows[stem, site.index] = [
                        (col, self._shared_ref(refs, site, min(
                            bucket.values(),
                            key=lambda peer: (nominal(site, peer.site), peer.node_id.value))))
                        for col, bucket in sorted(level[stem].items())]
                for col, ref in winners:
                    if col != h[row]:
                        table.add(ref)

    def elect_gateways(self) -> None:
        """(Re-)elect each site's boundary routers: its lowest live NodeIds.

        Deterministic, so every participant that knows the membership
        elects the same routers without coordination.
        """
        by_site: Dict[int, List[PastryNode]] = {}
        for node in self.nodes:
            if node.alive:
                by_site.setdefault(node.site.index, []).append(node)
        self.gateways = {}
        for site_index, members in by_site.items():
            members.sort(key=lambda n: n.node_id.value)
            self.gateways[site_index] = [
                NodeRef(n.node_id, n.address, n.site.index, 0.0)
                for n in members[:GATEWAYS_PER_SITE]
            ]

    # ------------------------------------------------------------------
    # Oracle queries (assertions & experiment bookkeeping)
    # ------------------------------------------------------------------
    def root_of(self, key: NodeId, site_index: Optional[int] = None) -> PastryNode:
        """The node a converged network would deliver ``key`` to."""
        candidates = (
            self.nodes
            if site_index is None
            else [n for n in self.nodes if n.site.index == site_index]
        )
        live = [n for n in candidates if self.network.has_host(n.address)]
        return min(live, key=lambda n: (n.node_id.distance(key), n.node_id.value))

    def live_nodes(self) -> List[PastryNode]:
        return [n for n in self.nodes if self.network.has_host(n.address)]

    # ------------------------------------------------------------------
    # Protocol-level join
    # ------------------------------------------------------------------
    def join(self, node: PastryNode, seed: PastryNode, timeout: float = 5_000.0) -> Future:
        """Run the message-level Pastry join; resolves when announced."""
        app: JoinApplication = node.app(JoinApplication.name)  # type: ignore[assignment]
        return app.start_join(node, seed, timeout)


class JoinApplication(Application):
    """The Pastry join protocol (paper §II-B1 / Rowstron-Druschel §2.4).

    The joiner asks a seed to route a JOIN toward the joiner's own id.  Every
    node on the route ships its routing state directly to the joiner; the
    key's root additionally ships its leaf set and marks the transfer final.
    The joiner then announces itself to every node it learned about, and
    those nodes fold the newcomer into their own state.
    """

    name = "join"

    def __init__(self, overlay: Overlay):
        self.overlay = overlay
        self._pending: Optional[Future] = None

    # -- joiner side ----------------------------------------------------
    def start_join(self, node: PastryNode, seed: PastryNode, timeout: float) -> Future:
        """Kick off the join via ``seed``; resolves True when announced."""
        self._pending = Future(self.overlay.sim, timeout=timeout)
        node.send_app(seed.address, self.name, "join_request", {
            "joiner": pack_ref(node.ref()),
        })
        return self._pending

    # -- seed / path side -------------------------------------------------
    def host_message(self, node: PastryNode, msg: Message) -> None:
        """Dispatch join-protocol direct messages (request/state/announce)."""
        kind = msg.payload["kind"]
        data = msg.payload["data"]
        if kind == "join_request":
            joiner_id, joiner_addr, joiner_site = data["joiner"]
            node.route(NodeId(joiner_id), self.name, {"joiner": data["joiner"]})
        elif kind == "state":
            self._absorb_state(node, data)
        elif kind == "announce":
            ref = self._unpack(node, data["ref"])
            node.add_peer(ref)
            node.send_app(ref.address, self.name, "welcome", {
                "ref": pack_ref(node.ref()),
                "leaf": [pack_ref(r) for r in node.leaf_set.members()],
            })
        elif kind == "welcome":
            node.add_peer(self._unpack(node, data["ref"]))
            for packed in data["leaf"]:
                node.add_peer(self._unpack(node, packed))

    def forward(self, node: PastryNode, key: NodeId, msg: Message, next_hop: NodeRef) -> bool:
        self._ship_state(node, msg, final=False)
        return True

    def deliver(self, node: PastryNode, key: NodeId, msg: Message) -> None:
        self._ship_state(node, msg, final=True)

    def _ship_state(self, node: PastryNode, msg: Message, final: bool) -> None:
        joiner_id, joiner_addr, joiner_site = msg.payload["data"]["joiner"]
        if joiner_addr == node.address:
            return
        refs = [pack_ref(r) for r in node.routing_table.entries()]
        refs.append(pack_ref(node.ref()))
        if final:
            refs.extend(pack_ref(r) for r in node.leaf_set.members())
        node.send_app(joiner_addr, self.name, "state", {
            "refs": refs,
            "final": final,
        })

    # -- joiner absorbs state --------------------------------------------
    def _absorb_state(self, node: PastryNode, data: dict) -> None:
        for packed in data["refs"]:
            node.add_peer(self._unpack(node, packed))
        if data["final"]:
            # Announce to everything we learned.
            known = {r.address for r in node.leaf_set.members()}
            known.update(r.address for r in node.routing_table.entries())
            for address in known:
                node.send_app(address, self.name, "announce", {
                    "ref": pack_ref(node.ref()),
                })
            if self._pending is not None:
                self._pending.try_resolve(True)
                self._pending = None

    def _unpack(self, node: PastryNode, packed: Tuple[int, int, int]) -> NodeRef:
        id_value, address, site_index = packed
        proximity = self.overlay.network.latency.nominal_one_way_ms(
            node.site, self.overlay.registry[site_index]
        )
        return NodeRef(NodeId(id_value), address, site_index, proximity)
