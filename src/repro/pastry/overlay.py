"""Overlay construction: oracle bootstrap and the message-level join protocol.

Large experiments (up to the paper's 16,000 agents) bootstrap through the
*oracle* path: leaf sets come from the sorted id ring and routing tables from
prefix buckets with proximity-aware candidate selection — exactly the state a
converged Pastry network holds, built in O(N log N) instead of O(N) rounds of
message exchange.  Protocol-fidelity tests use :meth:`Overlay.join`, the
real message-driven join (route to own id, collect state from the path,
announce to learned peers).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.message import Message
from repro.net.network import Network
from repro.net.site import Site, SiteRegistry
from repro.pastry.isolation import IsolationManager
from repro.pastry.leafset import DEFAULT_LEAF_SET_SIZE
from repro.pastry.node import Application, PastryNode
from repro.pastry.nodeid import BASE, NodeId
from repro.pastry.routing_table import NodeRef
from repro.sim.engine import Simulator
from repro.sim.futures import Future
from repro.sim.random_streams import RandomStreams

_HEX = "0123456789abcdef"


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
        leaf_set_size: int = DEFAULT_LEAF_SET_SIZE,
        isolation: bool = False,
        node_factory=None,
    ):
        self.sim = sim
        self.network = network
        self.streams = streams
        self.registry = registry
        self.leaf_set_size = leaf_set_size
        self.isolation = isolation
        #: Callable ``(node_id, site) -> PastryNode`` used by create_node;
        #: lets higher layers (RBAY) substitute their node subclass.
        self.node_factory = node_factory
        self.nodes: List[PastryNode] = []
        self._by_id: Dict[int, PastryNode] = {}
        #: Boundary-router bookkeeping for administrative isolation (§III-E).
        self.isolation_manager = IsolationManager()
        #: Per-site gateway ("router") refs, kept in sync with the manager.
        self.gateways: Dict[int, List[NodeRef]] = {}

    # ------------------------------------------------------------------
    # Node creation
    # ------------------------------------------------------------------
    def create_node(self, site: Site, node_id: Optional[NodeId] = None) -> PastryNode:
        """Create and attach a node; id defaults to SHA-1 of a synthetic IP."""
        if node_id is None:
            node_id = NodeId.random(self.streams.stream("overlay-ids"))
        while node_id.value in self._by_id:
            node_id = NodeId.random(self.streams.stream("overlay-ids"))
        if self.node_factory is not None:
            node = self.node_factory(node_id, site)
        else:
            node = PastryNode(node_id, site, leaf_set_size=self.leaf_set_size)
        if self.isolation:
            node.enable_site_scope(self.leaf_set_size)
        self.network.attach(node)
        node.register_app(JoinApplication(self))
        self.nodes.append(node)
        self._by_id[node_id.value] = node
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
        self._build_leaf_sets(self.nodes, site_scope=False)
        self._build_routing_tables(self.nodes, site_scope=False)
        if self.isolation:
            for site in self.registry:
                members = [n for n in self.nodes if n.site.index == site.index]
                if not members:
                    continue
                self._build_leaf_sets(members, site_scope=True)
                self._build_routing_tables(members, site_scope=True)
            self._elect_gateways()

    def _ref_for(self, observer: PastryNode, other: PastryNode) -> NodeRef:
        proximity = self.network.latency.nominal_one_way_ms(observer.site, other.site)
        return NodeRef(other.node_id, other.address, other.site.index, proximity)

    def _build_leaf_sets(self, nodes: Sequence[PastryNode], site_scope: bool) -> None:
        ring = sorted(nodes, key=lambda n: n.node_id.value)
        n = len(ring)
        half = self.leaf_set_size // 2
        for i, node in enumerate(ring):
            target = node.site_leaf_set if site_scope else node.leaf_set
            for step in range(1, min(half, n - 1) + 1):
                for j in (i + step, i - step):
                    peer = ring[j % n]
                    if peer is node:
                        continue
                    target.add(self._ref_for(node, peer))

    def _build_routing_tables(self, nodes: Sequence[PastryNode], site_scope: bool) -> None:
        # Bucket nodes by hex prefix; per bucket keep one representative per
        # site so proximity-aware selection is O(#sites) per slot.
        prefixes: List[Dict[str, Dict[int, PastryNode]]] = []
        depth = 0
        while True:
            level: Dict[str, Dict[int, PastryNode]] = {}
            for node in nodes:
                prefix = node.node_id.hex()[: depth + 1]
                bucket = level.setdefault(prefix, {})
                bucket.setdefault(node.site.index, node)
            prefixes.append(level)
            depth += 1
            if len(level) >= len(nodes) or depth >= 32:
                break
        for node in nodes:
            table = node.site_routing_table if site_scope else node.routing_table
            h = node.node_id.hex()
            for row in range(len(prefixes)):
                own_digit = node.node_id.digit(row)
                level = prefixes[row]
                for col in range(BASE):
                    if col == own_digit:
                        continue
                    bucket = level.get(h[:row] + _HEX[col])
                    if not bucket:
                        continue
                    best = min(
                        bucket.values(),
                        key=lambda peer: (
                            self.network.latency.nominal_one_way_ms(node.site, peer.site),
                            peer.node_id.value,
                        ),
                    )
                    if best is not node:
                        table.add(self._ref_for(node, best))

    def _elect_gateways(self) -> None:
        """Designate boundary 'router' nodes per site (lowest NodeIds)."""
        self.gateways = self.isolation_manager.elect_gateways(self.nodes)

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

    def node_by_id(self, node_id: NodeId) -> PastryNode:
        return self._by_id[node_id.value]

    def live_nodes(self) -> List[PastryNode]:
        return [n for n in self.nodes if self.network.has_host(n.address)]

    # ------------------------------------------------------------------
    # Protocol-level join
    # ------------------------------------------------------------------
    def join(self, node: PastryNode, seed: PastryNode, timeout: float = 5_000.0) -> Future:
        """Run the message-level Pastry join; resolves when announced."""
        app: JoinApplication = node.app(JoinApplication.name)  # type: ignore[assignment]
        return app.start_join(node, seed, timeout)

    def remove_node(self, node: PastryNode) -> None:
        """Crash-stop ``node``; peers repair lazily on next contact."""
        node.fail()


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
