"""Query planning and EXPLAIN.

A :class:`QueryPlan` is the static half of the five-step protocol: which
sites the query fans out to, which trees serve each predicate (after
hybrid-hierarchy expansion), which predicate is likely to drive the
anycast, and which checks run at every visited member.  ``explain()``
renders the plan the way a database EXPLAIN would — useful in examples,
debugging, and the hybrid-naming tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.naming import site_tree
from repro.query.predicates import Predicate
from repro.query.sql import Query

if TYPE_CHECKING:
    from repro.query.executor import _QueryContext


@dataclass
class PredicatePlan:
    """How one WHERE term is served."""

    predicate: Predicate
    trees: List[str]                  # candidate trees (hybrid-expanded)
    expanded: bool                    # True if the hierarchy expanded it
    #: The planner's route; it renders the predicate when it hits a
    #: bucketed index (bucket subset + closed-form message estimate).
    route: Optional["PredicateRoute"] = None

    def describe(self) -> str:
        if self.route is not None and self.route.bucketed:
            return self.route.describe()
        kind = "hierarchy-expanded" if self.expanded else "direct"
        return f"{self.predicate}  ->  {len(self.trees)} tree(s) [{kind}]"


@dataclass
class QueryPlan:
    """The full static plan for one query."""

    query: Query
    target_sites: List[str]
    predicate_plans: List[PredicatePlan] = field(default_factory=list)
    #: Per-site topic names probed in step 1.
    probes_per_site: Dict[str, List[str]] = field(default_factory=dict)
    #: Bucket subset a GROUP BY pushes down into (None = collect path).
    group_pushdown: Optional[List] = None

    @property
    def total_probes(self) -> int:
        return sum(len(topics) for topics in self.probes_per_site.values())

    def local_checks(self) -> List[Predicate]:
        """Predicates re-checked at every visited member (step 4i)."""
        return list(self.query.predicates)

    def explain(self) -> str:
        """Render the plan as EXPLAIN-style text, step by step."""
        lines = [f"QUERY  {self.query}"]
        if self.query.is_disjunctive():
            lines.append(f"  WHERE normalizes to {len(self.query.where)} "
                         "disjunct(s), executed in parallel and unioned")
        lines.append(f"  fan-out: {len(self.target_sites)} site(s): "
                     + ", ".join(self.target_sites))
        lines.append("  step 1-2 (probe tree sizes):")
        for plan in self.predicate_plans:
            lines.append(f"    {plan.describe()}")
        lines.append(f"    total size probes per site: "
                     f"{self.total_probes // max(len(self.target_sites), 1)}")
        lines.append("  step 3: anycast the predicate family with the "
                     "smallest live membership")
        checks = ", ".join(str(p) for p in self.local_checks()) or "none"
        lines.append(f"  step 4 (at each member): predicates [{checks}] "
                     "+ AA onGet authorization + reservation")
        if self.query.group_by:
            if self.group_pushdown is not None:
                lines.append(f"  group by {self.query.group_by}: pushed down "
                             f"into {len(self.group_pushdown)} bucket "
                             "roll-up(s) — zero member visits")
            else:
                lines.append(f"  group by {self.query.group_by}: collect "
                             "per-member labels, dedupe by address, count")
            lines.append("  step 5: fold group counts "
                         "(group queries reserve nothing)")
            return "\n".join(lines)
        k = self.query.k if self.query.k is not None else "all"
        commit = f"commit best {k}"
        if self.query.order_by:
            direction = "DESC" if self.query.descending else "ASC"
            commit += f" by {self.query.order_by} {direction}"
        lines.append(f"  step 5: {commit}, release surplus reservations")
        return "\n".join(lines)


def plan_query(query: Query, context: "_QueryContext") -> QueryPlan:
    """Build the static plan the executor would follow for ``query``."""
    from repro.query.planner import plan_group_pushdown, route_predicate

    target_sites = list(query.sites) if query.sites is not None else list(context.site_names)
    plan = QueryPlan(query=query, target_sites=target_sites)
    if query.group_by is not None and not query.is_disjunctive():
        plan.group_pushdown = plan_group_pushdown(
            context, query.predicates, query.group_by,
            context.planner_enabled)
    seen = set()
    for conjunction in (query.where or [[]]):
        for predicate in conjunction:
            if predicate.pack() in seen:
                continue
            seen.add(predicate.pack())
            route = route_predicate(context, predicate, query.k,
                                    context.planner_enabled)
            plan.predicate_plans.append(PredicatePlan(
                predicate=predicate,
                trees=list(route.trees),
                expanded=route.strategy == "direct" and len(route.trees) > 1,
                route=route,
            ))
    for site_name in target_sites:
        topics: List[str] = []
        for predicate_plan in plan.predicate_plans:
            topics.extend(site_tree(site_name, t) for t in predicate_plan.trees)
        plan.probes_per_site[site_name] = topics
    return plan
