"""Range-partitioned attribute indices: bucketed Scribe trees.

A flat attribute tree answers "who has ``CPU_utilization``?" but a range
query (``CPU_utilization BETWEEN 10 AND 30``) over it must flood every
member and filter at each one.  Following the decentralized range-query
designs in the related work (ART's sub-logarithmic range processing), we
split a numeric attribute's value domain into contiguous *buckets*, each
backed by its own Scribe topic with the usual aggregate roll-up.  A node
joins exactly the bucket containing its current value and re-buckets when
the value crosses a boundary, so a range query only needs the buckets its
interval overlaps — the query plan (:mod:`repro.query.plan`) probes and
anycasts that subset instead of flooding the base tree.

Boundaries are deterministic (evenly spaced over ``[lo, hi)``) so every
site derives identical bucket names from the registered spec alone, the
same "uniform key-value pair settings" agreement the paper assumes for
canonical tree names (§III-A).  The edge buckets absorb out-of-range
values: the first extends to -inf, the last to +inf, so *every* numeric
value maps to exactly one bucket and bucket membership partitions the
attribute's population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Operators a bucketed index can serve (plus equality, which degenerates
#: to a single-point interval).
RANGE_OPS = ("<", "<=", ">", ">=", "between")

#: An interval: (lo, lo_inclusive, hi, hi_inclusive); None bound = infinite.
_Interval = Tuple[Optional[float], bool, Optional[float], bool]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def predicate_interval(op: str, value: Any) -> Optional[_Interval]:
    """The value interval a predicate accepts, or None when not a range.

    ``between`` carries a two-element ``(lo, hi)`` value and is inclusive
    on both ends (SQL semantics); an inverted pair accepts nothing and
    returns an empty interval rather than None.
    """
    if op == "between":
        if (not isinstance(value, (tuple, list)) or len(value) != 2
                or not all(_is_number(v) for v in value)):
            return None
        return (float(value[0]), True, float(value[1]), True)
    if not _is_number(value):
        return None
    v = float(value)
    if op in ("=", "=="):
        return (v, True, v, True)
    if op == "<":
        return (None, False, v, False)
    if op == "<=":
        return (None, False, v, True)
    if op == ">":
        return (v, False, None, False)
    if op == ">=":
        return (v, True, None, False)
    return None


def _interval_empty(interval: _Interval) -> bool:
    lo, lo_inc, hi, hi_inc = interval
    if lo is None or hi is None:
        return False
    if lo > hi:
        return True
    return lo == hi and not (lo_inc and hi_inc)


def intervals_overlap(a: _Interval, b: _Interval) -> bool:
    """True when the two intervals share at least one value."""
    if _interval_empty(a) or _interval_empty(b):
        return False
    a_lo, a_lo_inc, a_hi, a_hi_inc = a
    b_lo, b_lo_inc, b_hi, b_hi_inc = b
    if a_hi is not None and b_lo is not None:
        if a_hi < b_lo or (a_hi == b_lo and not (a_hi_inc and b_lo_inc)):
            return False
    if b_hi is not None and a_lo is not None:
        if b_hi < a_lo or (b_hi == a_lo and not (b_hi_inc and a_lo_inc)):
            return False
    return True


def interval_contains(outer: _Interval, inner: _Interval) -> bool:
    """True when every value in ``inner`` also lies in ``outer``."""
    if _interval_empty(inner):
        return True
    o_lo, o_lo_inc, o_hi, o_hi_inc = outer
    i_lo, i_lo_inc, i_hi, i_hi_inc = inner
    if o_lo is not None:
        if i_lo is None:
            return False
        if i_lo < o_lo or (i_lo == o_lo and i_lo_inc and not o_lo_inc):
            return False
    if o_hi is not None:
        if i_hi is None:
            return False
        if i_hi > o_hi or (i_hi == o_hi and i_hi_inc and not o_hi_inc):
            return False
    return True


@dataclass(frozen=True)
class Bucket:
    """One value-range partition of a bucketed attribute.

    Nominal range is ``[lo, hi)``; the first bucket's effective lower
    bound is -inf and the last's effective upper bound is +inf, so the
    buckets of a spec cover the whole real line.
    """

    attribute: str
    lo: float
    hi: float
    index: int
    first: bool
    last: bool

    @property
    def tree(self) -> str:
        """Canonical (site-unqualified) Scribe topic for this bucket."""
        return f"{self.attribute}[{self.lo:g},{self.hi:g})"

    #: GROUP BY rows use the tree name as the group label.
    @property
    def label(self) -> str:
        return self.tree

    def interval(self) -> _Interval:
        return (None if self.first else self.lo, True,
                None if self.last else self.hi, False)

    def contains(self, value: Any) -> bool:
        """True when ``value`` falls in this bucket's effective range."""
        if not _is_number(value):
            return False
        v = float(value)
        if not self.first and v < self.lo:
            return False
        if not self.last and v >= self.hi:
            return False
        return True


@dataclass(frozen=True)
class BucketSpec:
    """Deterministic even partition of ``[lo, hi)`` into ``count`` buckets."""

    attribute: str
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("bucket count must be >= 1")
        if not self.lo < self.hi:
            raise ValueError("bucket range requires lo < hi")

    def boundary(self, i: int) -> float:
        """The i-th boundary (0..count); derived, never stored, so every
        site computes bit-identical values from the spec alone."""
        if i <= 0:
            return self.lo
        if i >= self.count:
            return self.hi
        return self.lo + (self.hi - self.lo) * i / self.count

    @property
    def buckets(self) -> List[Bucket]:
        return [
            Bucket(self.attribute, self.boundary(i), self.boundary(i + 1),
                   index=i, first=(i == 0), last=(i == self.count - 1))
            for i in range(self.count)
        ]

    def bucket_of(self, value: Any) -> Optional[Bucket]:
        """The unique bucket holding ``value`` (None for non-numbers).

        Out-of-range values clamp into the edge buckets, matching their
        infinite effective bounds.
        """
        if not _is_number(value):
            return None
        v = float(value)
        span = self.hi - self.lo
        index = int((v - self.lo) / span * self.count)
        index = max(0, min(self.count - 1, index))
        bucket = self.buckets[index]
        # Float division can land on the wrong side of a boundary; nudge.
        if not bucket.contains(v):
            for candidate in self.buckets:
                if candidate.contains(v):
                    return candidate
        return bucket

    def covering(self, op: str, value: Any) -> Optional[List[Bucket]]:
        """Buckets overlapping the predicate's interval, in index order.

        None when the predicate is not range-shaped (e.g. ``<>`` or a
        non-numeric literal) — the caller must fall back to non-bucketed
        execution.  An empty list means the predicate accepts nothing.
        """
        interval = predicate_interval(op, value)
        if interval is None:
            return None
        return [b for b in self.buckets
                if intervals_overlap(b.interval(), interval)]

    def fully_contained(self, bucket: Bucket, op: str, value: Any) -> bool:
        """True when *every* member of ``bucket`` satisfies the predicate —
        the condition for treating bucket membership as an implied check
        and for GROUP BY pushdown into the bucket roll-ups."""
        interval = predicate_interval(op, value)
        if interval is None:
            return False
        return interval_contains(interval, bucket.interval())


class BucketIndex:
    """Registry of the federation's bucketed attributes.

    One instance lives on the :class:`~repro.query.executor._QueryContext`;
    sites consult it both when subscribing nodes into bucket trees and
    when planning range queries, which keeps naming agreement automatic.
    """

    def __init__(self):
        self._specs: Dict[str, BucketSpec] = {}

    def register(self, spec: BucketSpec) -> BucketSpec:
        existing = self._specs.get(spec.attribute)
        if existing is not None and existing != spec:
            raise ValueError(
                f"attribute {spec.attribute!r} already bucketed as {existing}")
        self._specs[spec.attribute] = spec
        return spec

    def spec_for(self, attribute: str) -> Optional[BucketSpec]:
        return self._specs.get(attribute)

    def is_bucketed(self, attribute: str) -> bool:
        return attribute in self._specs

    def attributes(self) -> List[str]:
        return sorted(self._specs)

    def __len__(self) -> int:
        return len(self._specs)
