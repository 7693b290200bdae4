"""128-bit Pastry node identifiers.

NodeIds live on a circular space of size ``2^128`` and are viewed as 32
digits of base 16 (``b = 4``, the paper's "typical value").  Routing matches
digit prefixes; the leaf set uses circular numeric distance.  Ids are derived
from a SHA-1 hash of the node's IP address (paper §II-B1) or of a textual
key (tree names, attribute names).
"""

from __future__ import annotations

import hashlib
import random
from typing import Union

#: Number of bits in a NodeId.
BITS = 128
#: Bits per digit (the Pastry parameter b).
BASE_BITS = 4
#: Radix of a digit (2^b).
BASE = 1 << BASE_BITS
#: Number of digits in a NodeId.
DIGITS = BITS // BASE_BITS

_SPACE = 1 << BITS


class NodeId:
    """An identifier on the circular 128-bit Pastry ring."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value & (_SPACE - 1)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_key(cls, key: str) -> "NodeId":
        """Hash a textual key (node IP, tree name) onto the ring via SHA-1."""
        digest = hashlib.sha1(key.encode("utf-8")).digest()
        return cls(int.from_bytes(digest[:16], "big"))

    @classmethod
    def random(cls, rng: random.Random) -> "NodeId":
        return cls(rng.getrandbits(BITS))

    # ------------------------------------------------------------------
    # Digit view
    # ------------------------------------------------------------------
    def digit(self, index: int) -> int:
        """Return digit ``index`` (0 = most significant)."""
        if not 0 <= index < DIGITS:
            raise IndexError(f"digit index out of range: {index}")
        shift = BITS - BASE_BITS * (index + 1)
        return (self.value >> shift) & (BASE - 1)

    def shared_prefix_len(self, other: "NodeId") -> int:
        """Length (in digits) of the common prefix with ``other``."""
        if self.value == other.value:
            return DIGITS
        xor = self.value ^ other.value
        # Index of the highest differing bit, then convert to digit count.
        high_bit = xor.bit_length() - 1
        return (BITS - 1 - high_bit) // BASE_BITS

    def hex(self) -> str:
        return f"{self.value:032x}"

    # ------------------------------------------------------------------
    # Ring geometry
    # ------------------------------------------------------------------
    def distance(self, other: "NodeId") -> int:
        """Circular (minimal) distance on the ring."""
        diff = abs(self.value - other.value)
        return min(diff, _SPACE - diff)

    def clockwise_distance(self, other: "NodeId") -> int:
        """Distance travelling clockwise (increasing ids) from self to other."""
        return (other.value - self.value) % _SPACE

    def is_between(self, low: "NodeId", high: "NodeId") -> bool:
        """True if self lies on the clockwise arc from ``low`` to ``high`` inclusive."""
        if low.value <= high.value:
            return low.value <= self.value <= high.value
        return self.value >= low.value or self.value <= high.value

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __int__(self) -> int:
        return self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NodeId) and self.value == other.value

    def __lt__(self, other: "NodeId") -> bool:
        return self.value < other.value

    def __le__(self, other: "NodeId") -> bool:
        return self.value <= other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"NodeId({self.hex()[:8]}…)"


IdLike = Union[NodeId, int]


def as_node_id(value: IdLike) -> NodeId:
    """Coerce an int or NodeId to NodeId."""
    return value if isinstance(value, NodeId) else NodeId(value)
