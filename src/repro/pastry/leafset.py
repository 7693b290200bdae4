"""The Pastry leaf set: the L nodes numerically closest to the owner.

Half the entries precede the owner on the ring, half follow it.  The leaf
set completes the last routing step and repairs routing state on failures
(paper §II-B1).  For RBAY's administrative isolation (§III-E) each entry is
tagged with the site it belongs to.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional

from repro.pastry.nodeid import BITS, NodeId
from repro.pastry.routing_table import NodeRef

#: Default leaf-set size (L); L/2 on each side, FreePastry's default is 24,
#: the original paper uses 16 — we follow the original.
DEFAULT_LEAF_SET_SIZE = 16

_RING = 1 << BITS
_HALF_RING = 1 << (BITS - 1)


class LeafSet:
    """Nodes adjacent to the owner on the id ring, split by direction."""

    def __init__(self, owner_id: NodeId, size: int = DEFAULT_LEAF_SET_SIZE):
        if size < 2 or size % 2:
            raise ValueError("leaf set size must be an even number >= 2")
        self.owner_id = owner_id
        self.half = size // 2
        # Sorted by clockwise distance from owner (nearest first).
        self._cw: List[NodeRef] = []   # successors (larger ids, wrapping)
        self._ccw: List[NodeRef] = []  # predecessors
        # Membership index: addresses of every current member, so the
        # duplicate check in add() is one set probe, not a list scan.
        self._addrs: set = set()
        #: Monotonic membership-change counter; next-hop caches compare it
        #: to detect staleness without subscribing to mutations.
        self.version = 0

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(self, ref: NodeRef) -> bool:
        """Consider ``ref`` for membership; returns True if stored.

        A side stays sorted by distance from the owner, ties in arrival
        order.  Almost every candidate an exchange offers is known already
        or beyond a full side's farthest member: both are refused first.
        """
        address = ref.address
        if address in self._addrs:
            return False
        owner = self.owner_id.value
        d = (ref.node_id.value - owner) % _RING
        if d == 0:
            return False
        if d <= _HALF_RING:
            side = self._cw
            dist = lambda r: (r.node_id.value - owner) % _RING
        else:
            side = self._ccw
            d = _RING - d
            dist = lambda r: (owner - r.node_id.value) % _RING
        if len(side) >= self.half:
            if d >= dist(side[-1]):
                return False
            self._addrs.discard(side.pop().address)
        side.insert(bisect_right(side, d, key=dist), ref)
        self._addrs.add(address)
        self.version += 1
        return True

    def remove(self, address: int) -> bool:
        """Drop ``address`` from both arcs; True if anything was removed
        (which also bumps :attr:`version`, invalidating hop caches)."""
        before = len(self._cw) + len(self._ccw)
        self._cw = [r for r in self._cw if r.address != address]
        self._ccw = [r for r in self._ccw if r.address != address]
        removed = len(self._cw) + len(self._ccw) != before
        if removed:
            self._addrs.discard(address)
            self.version += 1
        return removed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def members(self) -> List[NodeRef]:
        """Every member, predecessors first: a new list on every call."""
        return self._ccw + self._cw

    def covers(self, key: NodeId) -> bool:
        """True if ``key`` falls within the leaf-set arc around the owner.

        Pastry delivers directly (one hop at most) once the key is covered.
        An empty side means the ring is small enough that we cover everything
        on that side.
        """
        if len(self._ccw) < self.half and len(self._cw) < self.half:
            # Neither side is full: we know every node on the ring.
            return True
        low = self._ccw[-1].node_id if self._ccw else self.owner_id
        high = self._cw[-1].node_id if self._cw else self.owner_id
        return key.is_between(low, high)

    def closest(self, key: NodeId) -> NodeRef:
        """The member (or owner, encoded as None) numerically closest to key.

        Returns the closest :class:`NodeRef`; callers compare against the
        owner's own distance to decide whether to deliver locally.
        """
        best: Optional[NodeRef] = None
        best_dist = None
        for ref in self.members():
            d = ref.node_id.distance(key)
            if best_dist is None or d < best_dist or (d == best_dist and ref.node_id < best.node_id):
                best, best_dist = ref, d
        if best is None:
            raise LookupError("leaf set is empty")
        return best

    def closer_than_owner(self, key: NodeId) -> Optional[NodeRef]:
        """Member strictly closer to ``key`` than the owner, if any.

        Ties break toward the numerically smaller id so every node agrees on
        the same root for a key (deterministic rendezvous).
        """
        owner_dist = self.owner_id.distance(key)
        candidate = None
        candidate_dist = owner_dist
        for ref in self.members():
            d = ref.node_id.distance(key)
            if d < candidate_dist or (
                d == candidate_dist
                and (candidate is None and ref.node_id < self.owner_id or
                     candidate is not None and ref.node_id < candidate.node_id)
            ):
                candidate, candidate_dist = ref, d
        return candidate

    def __len__(self) -> int:
        return len(self._cw) + len(self._ccw)

    def __contains__(self, address: int) -> bool:
        return address in self._addrs
