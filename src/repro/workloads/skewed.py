"""Skewed-value workload for the bucketed range-query planner.

The cost-based planner only pays off when bucket populations are uneven:
under a uniform value distribution every bucket is the same size and
probing a subset saves little over flooding.  This module dresses a plane
with a zipfian value distribution — most nodes crowd into a few "hot"
buckets while narrow range queries target the sparse tail — which is the
regime the planner-ablation benchmark measures
(``benchmarks/test_planner_ablation.py``).

Everything is driven by an explicit ``random.Random`` so two planes built
with the same seed carry byte-identical attribute values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar, List, Tuple

from repro.core.plane import RBay
from repro.scribe.buckets import BucketSpec


@dataclass(frozen=True)
class SkewedSpec:
    """Parameters of the zipfian bucketed-attribute workload."""

    attribute: ClassVar[str] = "CPU_utilization"
    lo: ClassVar[float] = 0.0
    hi: ClassVar[float] = 100.0
    buckets: int = 8
    #: Zipf exponent over bucket popularity: bucket rank r (1-based) gets
    #: weight ``1 / r**zipf_s``.
    zipf_s: ClassVar[float] = 1.2


def zipf_weights(count: int, s: float) -> List[float]:
    """Normalized zipf weights for ``count`` ranks (rank 1 hottest)."""
    raw = [1.0 / (rank ** s) for rank in range(1, count + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def assign_skewed_values(plane: RBay, rng: random.Random,
                         spec: SkewedSpec) -> BucketSpec:
    """Give every node a zipf-skewed value and register the bucket index.

    Each node first draws a bucket by zipf popularity, then a uniform
    value inside that bucket's nominal range, so bucket populations
    follow the zipf curve exactly.  Values are assigned *before*
    ``register_buckets`` subscribes the nodes, ensuring each node joins
    its correct bucket tree immediately.
    """
    bucket_spec = BucketSpec(spec.attribute, spec.lo, spec.hi, spec.buckets)
    weights = zipf_weights(spec.buckets, spec.zipf_s)
    boundaries = [bucket_spec.boundary(i) for i in range(spec.buckets + 1)]
    for node in plane.nodes:
        index = rng.choices(range(spec.buckets), weights=weights)[0]
        value = rng.uniform(boundaries[index], boundaries[index + 1])
        node.define_attribute(spec.attribute, value)
    plane.register_buckets(spec.attribute, spec.lo, spec.hi, spec.buckets)
    return bucket_spec


def range_query_mix(rng: random.Random, spec: SkewedSpec,
                    queries: int) -> List[Tuple[str, str]]:
    """A deterministic mix of narrow BETWEEN, open-ended, and GROUP BY
    queries over the skewed attribute.

    Returns ``(kind, sql)`` pairs; ``kind`` is ``"range"`` or ``"group"``.
    Narrow ranges aim at the sparse zipf tail (where the planner's bucket
    subset is smallest relative to the family), matching the access
    pattern the ablation is designed to show.
    """
    bucket_spec = BucketSpec(spec.attribute, spec.lo, spec.hi, spec.buckets)
    boundaries = [bucket_spec.boundary(i) for i in range(spec.buckets + 1)]
    out: List[Tuple[str, str]] = []
    for i in range(queries):
        roll = i % 4
        if roll == 3:
            out.append(("group",
                        f"SELECT * FROM * GROUP BY {spec.attribute}"))
            continue
        # Tail buckets are the sparse ones under zipf (hot = low index).
        index = rng.randrange(spec.buckets // 2, spec.buckets)
        lo, hi = boundaries[index], boundaries[index + 1]
        if roll == 0:
            out.append(("range",
                        f"SELECT * FROM * WHERE {spec.attribute} "
                        f"BETWEEN {lo:g} AND {hi:g}"))
        elif roll == 1:
            mid = (lo + hi) / 2.0
            out.append(("range",
                        f"SELECT * FROM * WHERE {spec.attribute} >= {mid:g}"))
        else:
            out.append(("range",
                        f"SELECT * FROM * WHERE {spec.attribute} "
                        f"BETWEEN {lo:g} AND {(lo + hi) / 2.0:g}"))
    return out
