"""The Pastry prefix routing table.

Row ``r`` holds nodes whose ids share exactly ``r`` leading digits with the
owner; column ``c`` within a row holds a node whose digit ``r`` is ``c``.
Per the paper (§II-B1) each entry records the peer's address, latency
(proximity), and NodeId; when several candidates compete for a slot the
closest by proximity wins (Pastry's locality property).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.pastry.nodeid import BASE, BASE_BITS, BITS, DIGITS, NodeId


class NodeRef:
    """A lightweight pointer to a remote node: id + address + proximity."""

    __slots__ = ("node_id", "address", "site_index", "proximity_ms")

    def __init__(self, node_id: NodeId, address: int, site_index: int, proximity_ms: float = 0.0):
        self.node_id = node_id
        self.address = address
        self.site_index = site_index
        self.proximity_ms = proximity_ms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NodeRef) and other.address == self.address

    def __hash__(self) -> int:
        return hash(self.address)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeRef({self.node_id.hex()[:8]}…, addr={self.address})"


class RoutingTable:
    """Sparse DIGITS×BASE table of :class:`NodeRef` entries."""

    def __init__(self, owner_id: NodeId):
        self.owner_id = owner_id
        # Rows allocated lazily: most of the 32 rows stay empty in practice
        # (only ~log_16(N) rows are populated).
        self._rows: List[Optional[List[Optional[NodeRef]]]] = [None] * DIGITS
        #: Monotonic entry-change counter; next-hop caches compare it to
        #: detect staleness (bumped on every stored add and every removal,
        #: including proximity-driven slot replacements).
        self.version = 0

    # ------------------------------------------------------------------
    def entry(self, row: int, col: int) -> Optional[NodeRef]:
        r = self._rows[row]
        return None if r is None else r[col]

    def add(self, ref: NodeRef) -> bool:
        """Insert ``ref``; returns True if it was stored (new or closer)."""
        value = ref.node_id.value
        differ = self.owner_id.value ^ value
        if not differ:
            return False
        # shared_prefix_len, then digit(row), on the raw integers.
        row_idx = (BITS - differ.bit_length()) // BASE_BITS
        col = (value >> (BITS - BASE_BITS * (row_idx + 1))) & (BASE - 1)
        row = self._rows[row_idx]
        if row is None:
            row = self._rows[row_idx] = [None] * BASE
        current = row[col]
        if current is None or ref.proximity_ms < current.proximity_ms:
            row[col] = ref
            self.version += 1
            return True
        return False

    def remove(self, address: int) -> bool:
        """Drop any entry pointing at ``address`` (failure handling)."""
        removed = False
        for row in self._rows:
            if row is None:
                continue
            for col, ref in enumerate(row):
                if ref is not None and ref.address == address:
                    row[col] = None
                    removed = True
        if removed:
            self.version += 1
        return removed

    # ------------------------------------------------------------------
    def next_hop(self, key: NodeId) -> Optional[NodeRef]:
        """The classic Pastry lookup: the entry matching one more digit of key."""
        row_idx = self.owner_id.shared_prefix_len(key)
        if row_idx >= DIGITS:
            return None
        return self.entry(row_idx, key.digit(row_idx))

    def entries(self) -> Iterator[NodeRef]:
        for row in self._rows:
            if row is None:
                continue
            for ref in row:
                if ref is not None:
                    yield ref

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())
