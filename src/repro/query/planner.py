"""Routing of range predicates over bucketed attribute trees.

The five-step protocol's step 1 probes one candidate tree family per
predicate and anycasts the smallest.  With range-partitioned bucket
indices (:mod:`repro.scribe.buckets`) the planner maps a range
predicate's interval to the buckets it overlaps; inside a site the
predicate then runs one of two ways:

* **probe** — size-probe only the overlapping buckets, then anycast them
  ascending.  Visits only members inside (or at the edge of) the interval.
* **flood** — search the whole bucket family with strict per-member
  checks.  The only option when the operator is not interval-shaped
  (``<>`` on a bucketed attribute) and the planner-off baseline for
  everything: probe all ``N`` buckets, visit members regardless of
  interval overlap.

EXPLAIN prints a closed-form message estimate per shape, in *messages
per site*: a probe costs 2 (request + reply), each visited member 1, and
a bucket is assumed to hold :data:`DEFAULT_SIZE_ESTIMATE` members — so
``cost = 2·buckets + min(k, 8·buckets)``.  Nothing is chosen by cost
(the overlapping subset is never larger than the family, so ``probe ≤
flood`` always); the golden tests in ``tests/test_query_planner.py`` pin
the routes so regressions show up as plan diffs.

GROUP BY pushdown: when every predicate of a single-conjunction WHERE
targets the grouped attribute and every bucket overlapping a predicate
is *fully contained* in its interval, the per-group counts are exactly
the bucket roll-up sizes — the query needs no member visits at all
(:func:`plan_group_pushdown`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.query.predicates import Predicate
from repro.scribe.buckets import Bucket, BucketSpec, predicate_interval

if TYPE_CHECKING:
    from repro.query.executor import _QueryContext

#: Members assumed per bucket by the EXPLAIN estimate (coarse prior).
DEFAULT_SIZE_ESTIMATE = 8

#: Cost stand-in for "visit every match" (SELECT * / unbounded k).
_UNBOUNDED = 1_000_000


@dataclass
class PredicateRoute:
    """How one predicate is served inside a site, with its estimate.

    ``trees`` are site-unqualified; the executor qualifies them with the
    site name.  ``exact`` means membership of every tree in the family
    implies the predicate (the step-4 check may treat it as implied);
    bucket routes are exact only when each bucket lies fully inside the
    predicate's interval.
    """

    predicate: Predicate
    strategy: str                       # direct | probe | flood | empty
    trees: List[str] = field(default_factory=list)
    exact: bool = True
    bucketed: bool = False
    costs: Dict[str, float] = field(default_factory=dict)
    reason: str = ""

    def describe(self) -> str:
        """One-line rendering for EXPLAIN output and plan-diff tests."""
        parts = [f"{self.predicate}  ->  {self.strategy}"]
        if self.bucketed:
            parts.append(f"{len(self.trees)} bucket(s)")
            cost_bits = ", ".join(
                f"{name}={self.costs[name]:g}"
                for name in ("probe", "flood")
                if name in self.costs)
            if cost_bits:
                parts.append(f"[cost {cost_bits}]")
        else:
            parts.append(f"{len(self.trees)} tree(s)")
        if self.reason:
            parts.append(f"({self.reason})")
        return "  ".join(parts)


def _message_estimate(buckets: int, k_eff: int) -> float:
    """Probe every bucket (2 messages each), then visit up to ``k`` members."""
    return 2.0 * buckets + min(k_eff, DEFAULT_SIZE_ESTIMATE * buckets)


def route_predicate(
    context: "_QueryContext",
    predicate: Predicate,
    k: Optional[int],
    planner_on: bool = True,
) -> PredicateRoute:
    """Choose how to serve one predicate inside one site."""
    spec: Optional[BucketSpec] = context.bucket_index.spec_for(predicate.attribute)
    interval = (None if spec is None
                else predicate_interval(predicate.op, predicate.value))
    servable = interval is not None or (
        spec is not None and predicate.op in ("<>", "!="))
    if not servable:
        # Not served by a bucket index: the legacy candidate-tree path.
        return PredicateRoute(
            predicate=predicate, strategy="direct",
            trees=context.candidate_trees(predicate), exact=True,
            reason="no bucket index" if spec is None else "non-range operator")

    family = spec.buckets
    overlapping = spec.covering(predicate.op, predicate.value)
    k_eff = _UNBOUNDED if k is None else max(1, k)
    costs: Dict[str, float] = {"flood": _message_estimate(len(family), k_eff)}

    if not planner_on or overlapping is None:
        # Planner off (or an operator no interval covers): strict search
        # of the whole family.  Membership implies only a bucket's range,
        # never the predicate, so the checks stay strict.
        reason = ("planner off" if not planner_on
                  else f"operator {predicate.op!r} spans all buckets")
        return PredicateRoute(
            predicate=predicate, strategy="flood",
            trees=[b.tree for b in family], exact=False, bucketed=True,
            costs=costs, reason=reason)

    if not overlapping:
        return PredicateRoute(
            predicate=predicate, strategy="empty", trees=[], exact=True,
            bucketed=True, costs=costs, reason="predicate accepts no values")

    exact = all(spec.fully_contained(b, predicate.op, predicate.value)
                for b in overlapping)
    costs["probe"] = _message_estimate(len(overlapping), k_eff)
    return PredicateRoute(
        predicate=predicate, strategy="probe",
        trees=[b.tree for b in overlapping], exact=exact, bucketed=True,
        costs=costs,
        reason=f"{len(overlapping)}/{len(family)} bucket(s) overlap")


def route_predicates(
    context: "_QueryContext",
    predicates: List[Predicate],
    k: Optional[int],
    planner_on: bool = True,
) -> List[PredicateRoute]:
    """Route every predicate of one conjunction (see :func:`route_predicate`)."""
    return [route_predicate(context, p, k, planner_on) for p in predicates]


def plan_group_pushdown(
    context: "_QueryContext",
    predicates: List[Predicate],
    group_by: str,
    planner_on: bool = True,
) -> Optional[List[Bucket]]:
    """Buckets whose roll-up counts answer a GROUP BY without any visits.

    Pushdown is sound only when the grouped attribute is bucket-indexed
    and the (single-conjunction) WHERE restricts nothing a bucket
    boundary does not already encode: every predicate targets the group
    attribute and every bucket overlapping a predicate lies fully inside
    its interval.  Returns the bucket subset to probe, or None when the
    query must fall back to collecting per-member group labels.
    """
    if not planner_on:
        return None
    spec = context.bucket_index.spec_for(group_by)
    if spec is None:
        return None
    chosen = {b.index: b for b in spec.buckets}
    for predicate in predicates:
        if predicate.attribute != group_by:
            return None
        overlapping = spec.covering(predicate.op, predicate.value)
        if overlapping is None:
            return None
        if not all(spec.fully_contained(b, predicate.op, predicate.value)
                   for b in overlapping):
            return None
        keep = {b.index for b in overlapping}
        chosen = {i: b for i, b in chosen.items() if i in keep}
    return [chosen[i] for i in sorted(chosen)]


def group_label(context: "_QueryContext", group_by: str, value: Any) -> str:
    """The group a member's value falls in: its bucket's label when the
    attribute is bucket-indexed, else the canonical value rendering."""
    from repro.core.naming import _canonical_value  # lazy: avoids cycle

    spec = context.bucket_index.spec_for(group_by)
    if spec is not None:
        bucket = spec.bucket_of(value)
        if bucket is not None:
            return bucket.label
    return _canonical_value(value)
