"""The leaf set and routing table against their reference models.

``LeafSet.add`` rejects a candidate beyond a full side's farthest member
before touching the arc and otherwise inserts with ``bisect_right``;
``RoutingTable.add`` places a peer with integer XOR/shift arithmetic.
The references below are the straightforward forms — append, stable sort,
pop; ``NodeId.shared_prefix_len`` and ``NodeId.digit`` — and every
observable (return values, member order, ``version``, ``covers``, ``in``,
table slots) must match them after every step.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pastry.leafset import LeafSet
from repro.pastry.nodeid import NodeId
from repro.pastry.routing_table import NodeRef, RoutingTable

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
