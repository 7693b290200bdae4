"""The query plan: one value the site executor interprets and EXPLAIN prints.

Steps 1–3 of the five-step protocol (paper §III-D, Fig. 7) are a plan:
which tree family serves each predicate, which trees get a size probe and
— once the sizes are in — which family is searched.  :func:`plan_conjunction`
derives it for one conjunction inside one site, and
:meth:`ConjunctionPlan.choose` is step 3 as a pure function of (plan,
probed sizes).  ``QueryApplication._site_query`` builds one
:class:`ConjunctionPlan` per conjunction and follows it; :func:`plan_query`
maps the same function over a query's disjuncts for ``explain()``, so what
EXPLAIN prints is what runs.

With range-partitioned bucket indices (:mod:`repro.scribe.buckets`) a
range predicate's interval maps to the buckets it overlaps; inside a site
the predicate then runs one of two ways:

* **probe** — size-probe only the overlapping buckets, then anycast them
  ascending.  Visits only members inside (or at the edge of) the interval.
* **flood** — search the whole bucket family with strict per-member
  checks.  The only option when the operator is not interval-shaped
  (``<>`` on a bucketed attribute) and the planner-off baseline for
  everything: probe all ``N`` buckets, visit members regardless of
  interval overlap.

GROUP BY pushdown: when every predicate of a single-conjunction WHERE
targets the grouped attribute and every bucket overlapping a predicate
is *fully contained* in its interval, the per-group counts are exactly
the bucket roll-up sizes — the query needs no member visits at all
(:func:`plan_group_pushdown`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Tuple)

from repro.core.naming import _canonical_value, site_tree
from repro.query.predicates import Predicate
from repro.query.sql import Query
from repro.scribe.buckets import Bucket, predicate_interval

if TYPE_CHECKING:
    from repro.query.executor import _QueryContext
    from repro.query.options import QueryOptions


@dataclass
class PredicateRoute:
    """How one predicate is served inside a site.

    ``trees`` are site-unqualified; the executor qualifies them with the
    site name.  ``exact`` means membership of every tree in the family
    implies the predicate (the step-4 check may treat it as implied);
    bucket routes are exact only when each bucket lies fully inside the
    predicate's interval.  ``predicate`` is None on the synthetic
    whole-bucket-family route a GROUP BY searches.
    """

    predicate: Optional[Predicate]
    strategy: str                       # direct | probe | flood | empty | pushdown
    trees: List[str] = field(default_factory=list)
    exact: bool = True
    bucketed: bool = False
    reason: str = ""

    def describe(self) -> str:
        """One-line rendering for EXPLAIN output and plan-diff tests."""
        subject = "GROUP BY family" if self.predicate is None else self.predicate
        unit = "bucket(s)" if self.bucketed else "tree(s)"
        parts = [f"{subject}  ->  {self.strategy}", f"{len(self.trees)} {unit}"]
        if not self.exact:
            parts.append("[strict]")
        if self.reason:
            parts.append(f"({self.reason})")
        return "  ".join(parts)


@dataclass
class ConjunctionPlan:
    """The plan for one conjunction inside one site: a route per predicate
    (plus the synthetic family of a WHERE-less GROUP BY), or — ``pushdown``
    not None — the one bucket list whose roll-up sizes are the answer."""

    routes: List[PredicateRoute]
    pushdown: Optional[List[Bucket]] = None

    def strategies(self) -> List[str]:
        """The ``query.plan.<name>`` counters the executor bumps, in order."""
        if self.pushdown is not None:
            return ["pushdown"]
        return [r.strategy for r in self.routes if r.predicate is not None]

    def probes(self) -> List[str]:
        """Steps 1–2: the (site-unqualified) trees probed, in send order."""
        return list(dict.fromkeys(t for r in self.routes for t in r.trees))

    def visits_members(self) -> bool:
        """Can step 4 run at all?  Not on a pushdown, not without a tree."""
        return self.pushdown is None and any(r.trees for r in self.routes)

    def choose(self, size_of: Dict[str, int], qualify: Callable[[str], str]
               ) -> Optional[Tuple[List[str], List[Tuple[Dict[str, Any], bool]]]]:
        """Step 3: given the probed sizes (keyed by ``qualify(tree)``), the
        trees to anycast and the packed ``(predicate, implied)`` checks —
        or None when every family is empty.

        The smallest populated family wins (the first on ties) and its
        non-empty trees are searched ascending.  Tree membership *implies*
        the chosen predicate (that is what the tree indexes), so members
        re-check only the remaining ones — the paper's step 4i checks "if
        its node has less CPU utilization", not the instance type the tree
        already encodes.  A family that is not ``exact`` keeps its
        predicate strict even when chosen; members re-check an implied
        predicate anyway when the attribute is present locally (a guard
        against stale membership between maintenance ticks).
        """
        groups = [[qualify(t) for t in r.trees] for r in self.routes]
        totals = [sum(size_of[t] for t in group) for group in groups]
        populated = [i for i, total in enumerate(totals) if total > 0]
        if not populated:
            return None
        best_index = min(populated, key=totals.__getitem__)  # first on ties
        topics = sorted(groups[best_index], key=size_of.__getitem__)
        checks = [(r.predicate.pack(), i == best_index and r.exact)
                  for i, r in enumerate(self.routes) if r.predicate is not None]
        return [t for t in topics if size_of[t] > 0], checks


def route_predicate(context: "_QueryContext", predicate: Predicate,
                    planner_on: bool = True) -> PredicateRoute:
    """Choose how to serve one predicate inside one site."""
    spec = context.bucket_index.spec_for(predicate.attribute)
    interval = (None if spec is None
                else predicate_interval(predicate.op, predicate.value))
    if interval is None and (spec is None or predicate.op not in ("<>", "!=")):
        # Not served by a bucket index: the candidate trees of the hybrid
        # naming scheme (one tree, or a major tree's leaves).
        trees = context.candidate_trees(predicate)
        return PredicateRoute(
            predicate, "direct", trees,
            reason=("hierarchy-expanded" if len(trees) > 1
                    else "no bucket index" if spec is None
                    else "non-range operator"))

    family = spec.buckets
    overlapping = spec.covering(predicate.op, predicate.value)
    if not planner_on or overlapping is None:
        # Planner off (or an operator no interval covers): strict search
        # of the whole family.  Membership implies only a bucket's range,
        # never the predicate, so the checks stay strict.
        return PredicateRoute(
            predicate, "flood", [b.tree for b in family], exact=False,
            bucketed=True,
            reason=("planner off" if not planner_on
                    else f"operator {predicate.op!r} spans all buckets"))
    if not overlapping:
        return PredicateRoute(predicate, "empty", bucketed=True,
                              reason="predicate accepts no values")
    return PredicateRoute(
        predicate, "probe", [b.tree for b in overlapping],
        exact=all(spec.fully_contained(b, predicate.op, predicate.value)
                  for b in overlapping),
        bucketed=True,
        reason=f"{len(overlapping)}/{len(family)} bucket(s) overlap")


def plan_group_pushdown(context: "_QueryContext", predicates: List[Predicate],
                        group_by: str, planner_on: bool = True
                        ) -> Optional[List[Bucket]]:
    """Buckets whose roll-up counts answer a GROUP BY without any visits.

    Pushdown is sound only when the grouped attribute is bucket-indexed
    and the (single-conjunction) WHERE restricts nothing a bucket
    boundary does not already encode: every predicate targets the group
    attribute and every bucket overlapping a predicate lies fully inside
    its interval.  Returns the bucket subset to probe, or None when the
    query must fall back to collecting per-member group labels.
    """
    spec = context.bucket_index.spec_for(group_by)
    if not planner_on or spec is None:
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


def plan_conjunction(context: "_QueryContext", predicates: List[Predicate],
                     group_by: Optional[str] = None, pushdown_ok: bool = True,
                     planner_on: bool = True) -> ConjunctionPlan:
    """Plan one conjunction inside one site (pure: nothing is sent).

    ``pushdown_ok`` is False for a disjunctive query: its branches must
    collect per-member labels so the union can dedupe by address.
    """
    def family(buckets: List[Bucket], strategy: str, reason: str) -> PredicateRoute:
        return PredicateRoute(None, strategy, [b.tree for b in buckets],
                              bucketed=True, reason=reason)

    if group_by is not None and pushdown_ok:
        pushdown = plan_group_pushdown(context, predicates, group_by, planner_on)
        if pushdown is not None:
            return ConjunctionPlan(
                [family(pushdown, "pushdown", "roll-up counts are the answer")],
                pushdown)
    routes = [route_predicate(context, p, planner_on) for p in predicates]
    if group_by is not None and not predicates:
        # No WHERE: the grouped attribute's whole bucket family is the
        # search space; unbucketed, no tree covers "every node holding
        # the attribute" and the plan stays empty.
        spec = context.bucket_index.spec_for(group_by)
        if spec is not None:
            routes.append(family(spec.buckets, "flood", "no WHERE clause"))
    return ConjunctionPlan(routes)


def group_label(context: "_QueryContext", group_by: str, value: Any) -> str:
    """The group a member's value falls in: its bucket's label when the
    attribute is bucket-indexed, else the canonical value rendering."""
    spec = context.bucket_index.spec_for(group_by)
    if spec is not None:
        bucket = spec.bucket_of(value)
        if bucket is not None:
            return bucket.label
    return _canonical_value(value)


@dataclass
class QueryPlan:
    """A whole query's plan: the fan-out plus one :class:`ConjunctionPlan`
    per disjunct, which every target site follows identically."""

    query: Query
    target_sites: List[str]
    conjunctions: List[ConjunctionPlan]

    def probes(self, site: str) -> List[str]:
        """The topics ``site`` probes in steps 1–2, in send order."""
        return [site_tree(site, t) for c in self.conjunctions for t in c.probes()]

    def explain(self) -> str:
        """Render the plan as EXPLAIN-style text, step by step."""
        query = self.query
        lines = [f"QUERY  {query}"]
        if query.is_disjunctive():
            lines.append(f"  WHERE normalizes to {len(query.where)} "
                         "disjunct(s), executed in parallel and unioned")
        lines.append(f"  fan-out: {len(self.target_sites)} site(s): "
                     + ", ".join(self.target_sites))
        lines.append("  step 1-2 (probe tree sizes):")
        indent = "      " if query.is_disjunctive() else "    "
        for number, conjunction in enumerate(self.conjunctions, 1):
            if query.is_disjunctive():
                lines.append(f"    disjunct {number}:")
            lines.extend(indent + r.describe() for r in conjunction.routes)
        lines.append("    total size probes per site: "
                     f"{sum(len(c.probes()) for c in self.conjunctions)}")
        visiting = [c for c in self.conjunctions if c.visits_members()]
        if visiting:
            checks = ", ".join(dict.fromkeys(
                str(r.predicate) for c in visiting for r in c.routes
                if r.predicate is not None)) or "none"
            lines.append("  step 3: anycast the predicate family with the "
                         "smallest live membership")
            lines.append(
                f"  step 4 (at each member): predicates [{checks}] (the "
                "searched family's own is implied unless [strict]) + "
                + ("group label, no reservation" if query.group_by else
                   "AA onGet authorization + reservation"))
        if query.group_by:
            pushdown = self.conjunctions[0].pushdown
            how = (f"pushed down into {len(pushdown)} bucket roll-up(s) — "
                   "zero member visits" if pushdown is not None
                   else "collect per-member labels, dedupe by address, count"
                   if visiting else "no tree to search — empty answer")
            lines.append(f"  group by {query.group_by}: {how}")
            lines.append("  step 5: fold group counts "
                         "(group queries reserve nothing)")
            return "\n".join(lines)
        k = query.k if query.k is not None else "all"
        commit = f"commit best {k}"
        if query.order_by:
            commit += f" by {query.order_by} {'DESC' if query.descending else 'ASC'}"
        lines.append(f"  step 5: {commit}, release surplus reservations")
        return "\n".join(lines)


def plan_query(query: Query, context: "_QueryContext",
               options: Optional["QueryOptions"] = None) -> QueryPlan:
    """The plan every target site's executor follows for ``query`` run with
    ``options`` (whose ``planner`` setting the sites receive too)."""
    planner_on = options is None or options.planner
    return QueryPlan(
        query,
        list(query.sites) if query.sites is not None else list(context.site_names),
        [plan_conjunction(context, conjunction, query.group_by,
                          not query.is_disjunctive(), planner_on)
         for conjunction in (query.where or [[]])])
