"""The leaf set, routing table and oracle bootstrap against their
reference models.

``LeafSet.add`` rejects a candidate beyond a full side's farthest member
before touching the arc and otherwise inserts with ``bisect_right``;
``RoutingTable.add`` places a peer with integer XOR/shift arithmetic.
The references below are the straightforward forms — append, stable sort,
pop; ``NodeId.shared_prefix_len`` and ``NodeId.digit`` — and every
observable (return values, member order, ``version``, ``covers``, ``in``,
table slots) must match them after every step.

``Overlay.bootstrap`` picks each routing-table row once per group of nodes
sharing a site and a stem, and hands every table at a site the same ref
for a peer; its reference is the per-node build, one proximity choice and
one fresh ref per node and slot.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.latency import (
    EC2_SITES,
    SyntheticLatencyModel,
    TableIILatencyModel,
    UniformLatencyModel,
)
from repro.net.network import Network
from repro.net.site import SiteRegistry
from repro.pastry.leafset import DEFAULT_LEAF_SET_SIZE, LeafSet
from repro.pastry.nodeid import BASE, NodeId
from repro.pastry.overlay import Overlay
from repro.pastry.routing_table import NodeRef, RoutingTable
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams

RING = 1 << 128
HALF = 1 << 127
ADDRESSES = range(12)


class ReferenceLeafSet(LeafSet):
    """Append the candidate, stable-sort its side, pop the farthest."""

    def add(self, ref: NodeRef) -> bool:
        if ref.node_id == self.owner_id:
            return False
        if ref.address in self._addrs:
            return False
        cw_dist = self.owner_id.clockwise_distance(ref.node_id)
        side = self._cw if cw_dist <= HALF else self._ccw
        side.append(ref)
        side.sort(key=lambda r: self._side_distance(r, side is self._cw))
        if len(side) > self.half:
            dropped = side.pop()
            stored = dropped.address != ref.address
            if stored:
                self._addrs.discard(dropped.address)
                self._addrs.add(ref.address)
        else:
            stored = True
            self._addrs.add(ref.address)
        if stored:
            self.version += 1
        return stored

    def _side_distance(self, ref: NodeRef, clockwise: bool) -> int:
        d = self.owner_id.clockwise_distance(ref.node_id)
        return d if clockwise else RING - d

    def remove(self, address: int) -> bool:
        before = len(self._cw) + len(self._ccw)
        self._cw = [r for r in self._cw if r.address != address]
        self._ccw = [r for r in self._ccw if r.address != address]
        removed = len(self._cw) + len(self._ccw) != before
        if removed:
            self._addrs.discard(address)
            self.version += 1
        return removed


@st.composite
def leaf_set_runs(draw):
    """``(owner, size, ops, keys)``: ids come from a small pool near the
    owner, the antipode and anywhere, so equal ids at two addresses, full
    sides, wrap-around and the owner's own id all recur."""
    owner = draw(st.one_of(st.sampled_from([0, 1, HALF, RING - 1]),
                           st.integers(0, RING - 1)))
    offsets = st.one_of(st.integers(-40, 40),
                        st.sampled_from([HALF - 1, HALF, HALF + 1]),
                        st.integers(0, RING - 1))
    pool = draw(st.lists(offsets.map(lambda o: (owner + o) % RING),
                         min_size=1, max_size=10))
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("add"), st.sampled_from(pool), st.sampled_from(ADDRESSES)),
        st.tuples(st.just("remove"), st.sampled_from(ADDRESSES))), max_size=60))
    keys = draw(st.lists(st.one_of(st.sampled_from(pool), st.integers(0, RING - 1)),
                         min_size=1, max_size=6))
    return owner, draw(st.sampled_from([2, 4, 6, 16])), ops, keys


@settings(max_examples=300, deadline=None)
@given(leaf_set_runs())
# The same id at two addresses: equal distances keep arrival order.
@example((1000, 4, [("add", 1005, 1), ("add", 1005, 2), ("add", 1003, 3),
                    ("add", 1005, 4), ("add", 995, 5), ("add", 995, 6)],
          [1004, 997]))
# Full sides reject the farther candidate, and the equally far one.
@example((1000, 2, [("add", 1001, 1), ("add", 1002, 2), ("add", 1001, 3),
                    ("add", 999, 4), ("add", 998, 5), ("add", 1000, 6)],
          [1002, 998, 5000]))
# Removal, then the same peer again (and a peer evicted, then re-offered).
@example((RING - 1, 2, [("add", 3, 1), ("remove", 1), ("add", 3, 1),
                        ("add", 1, 2), ("add", 3, 1), ("remove", 2),
                        ("add", 3, 1), ("add", RING - 5, 3)],
          [0, 2, RING - 3]))
def test_leaf_set_matches_sort_then_pop(run):
    owner, size, ops, keys = run
    fast = LeafSet(NodeId(owner), size=size)
    reference = ReferenceLeafSet(NodeId(owner), size=size)
    for op in ops:
        if op[0] == "add":
            ref = NodeRef(NodeId(op[1]), op[2], 0)
            assert fast.add(ref) == reference.add(ref)
        else:
            assert fast.remove(op[1]) == reference.remove(op[1])
        assert list(map(id, fast.members())) == list(map(id, reference.members()))
        assert fast.version == reference.version
        assert len(fast) == len(reference)
        for address in ADDRESSES:
            assert (address in fast) == (address in reference)
        for key in keys:
            assert fast.covers(NodeId(key)) == reference.covers(NodeId(key))


def reference_slot(owner: NodeId, node_id: NodeId):
    if node_id == owner:
        return None
    row = owner.shared_prefix_len(node_id)
    return row, node_id.digit(row)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, RING - 1),
       st.lists(st.tuples(st.integers(0, 128), st.integers(0, RING - 1),
                          st.floats(0.0, 100.0)), max_size=40))
def test_routing_table_places_by_prefix_and_digit(owner, peers):
    """Peers are ``owner ^ (noise >> shift)``: shift 128 is the owner's own
    id, larger shifts share longer prefixes and land in deeper rows."""
    owner_id = NodeId(owner)
    table = RoutingTable(owner_id)
    slots = {}
    stores = 0
    for address, (shift, noise, proximity) in enumerate(peers):
        ref = NodeRef(NodeId(owner ^ (noise >> shift)), address, 0, proximity)
        slot = reference_slot(owner_id, ref.node_id)
        stored = slot is not None and (
            slot not in slots or proximity < slots[slot].proximity_ms)
        if stored:
            slots[slot] = ref
            stores += 1
        assert table.add(ref) == stored
    assert table.version == stores
    assert {(row, col): table.entry(row, col)
            for row in range(32) for col in range(16)
            if table.entry(row, col) is not None} == slots


def reference_bootstrap(overlay: Overlay) -> None:
    """The per-node oracle build: every node chooses every slot itself."""
    latency = overlay.network.latency

    def ref_for(observer, other):
        proximity = latency.nominal_one_way_ms(observer.site, other.site)
        return NodeRef(other.node_id, other.address, other.site.index, proximity)

    def leaf_sets(nodes, site_scope):
        ring = sorted(nodes, key=lambda n: n.node_id.value)
        n = len(ring)
        for i, node in enumerate(ring):
            target = node.site_leaf_set if site_scope else node.leaf_set
            for step in range(1, min(DEFAULT_LEAF_SET_SIZE // 2, n - 1) + 1):
                for j in (i + step, i - step):
                    if ring[j % n] is not node:
                        target.add(ref_for(node, ring[j % n]))

    def routing_tables(nodes, site_scope):
        prefixes = []
        while True:
            level = {}
            for node in nodes:
                bucket = level.setdefault(node.node_id.hex()[:len(prefixes) + 1], {})
                bucket.setdefault(node.site.index, node)
            prefixes.append(level)
            if len(level) >= len(nodes) or len(prefixes) >= 32:
                break
        for node in nodes:
            table = node.site_routing_table if site_scope else node.routing_table
            h = node.node_id.hex()
            for row, level in enumerate(prefixes):
                for col in range(BASE):
                    bucket = level.get(h[:row] + "0123456789abcdef"[col])
                    if col == node.node_id.digit(row) or not bucket:
                        continue
                    best = min(bucket.values(), key=lambda peer: (
                        latency.nominal_one_way_ms(node.site, peer.site),
                        peer.node_id.value))
                    if best is not node:
                        table.add(ref_for(node, best))

    leaf_sets(overlay.nodes, False)
    routing_tables(overlay.nodes, False)
    if overlay.isolation:
        for site in overlay.registry:
            members = [n for n in overlay.nodes if n.site.index == site.index]
            if members:
                leaf_sets(members, True)
                routing_tables(members, True)
        overlay.elect_gateways()


def built_overlay(model, sites, per_site, seed, isolation, reference):
    registry = SiteRegistry()
    for index in range(sites):
        name, region = EC2_SITES[index] if model == "table2" else (f"S{index}", "X")
        registry.add(name, region)
    latency = {"table2": TableIILatencyModel(),
               "synthetic": SyntheticLatencyModel(sites),
               "uniform": UniformLatencyModel(0.25)}[model]
    sim = Simulator()
    overlay = Overlay(sim, Network(sim, latency), RandomStreams(seed), registry,
                      isolation=isolation)
    overlay.create_population(per_site)
    if reference:
        reference_bootstrap(overlay)
    else:
        overlay.bootstrap()
    return overlay


def routing_state(overlay: Overlay):
    """Every node's slots, leaf-set sides in order and versions, per scope."""
    def ref(r):
        return (r.node_id.value, r.address, r.site_index, r.proximity_ms)

    state = []
    for node in overlay.nodes:
        for table, leaves in ((node.routing_table, node.leaf_set),
                              (node.site_routing_table, node.site_leaf_set)):
            if table is None:
                state.append(None)
                continue
            state.append((
                table.version, leaves.version,
                [ref(r) for r in leaves._ccw], [ref(r) for r in leaves._cw],
                {(row, col): ref(table.entry(row, col))
                 for row in range(32) for col in range(BASE)
                 if table.entry(row, col) is not None}))
    return state


@st.composite
def plane_shapes(draw):
    """``(model, sites, per_site, seed, isolation)``: Table II over up to
    its eight sites, the synthetic ring (an even site count makes offsets
    k and n - k tie on proximity) and one uniform delay everywhere (every
    site ties), which leaves the smaller id to decide."""
    model = draw(st.sampled_from(["table2", "synthetic", "uniform"]))
    sites = draw(st.integers(1, 8))
    return (model, sites, draw(st.integers(1, 24)), draw(st.integers(0, 2**16)),
            draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(plane_shapes())
@example(("synthetic", 4, 24, 7, True))
@example(("synthetic", 8, 24, 3, False))
@example(("uniform", 1, 24, 11, False))
@example(("table2", 8, 24, 5, True))
@example(("uniform", 3, 1, 1, True))
def test_bootstrap_matches_the_per_node_build(shape):
    fast = built_overlay(*shape, reference=False)
    reference = built_overlay(*shape, reference=True)
    assert routing_state(fast) == routing_state(reference)
    assert {site: [r.address for r in refs] for site, refs in fast.gateways.items()} == {
        site: [r.address for r in refs] for site, refs in reference.gateways.items()}
