"""Golden tests pinning the plan's routes, and step 3 without a plane.

Each routing test asserts the exact strategy and bucket subset the plan
must pick for a predicate.  The golden-plan comparisons diff
``PredicateRoute.describe()`` strings, so a routing regression fails with
a readable plan diff instead of a bare boolean.  ``TestChoose`` drives
``ConjunctionPlan.choose`` on hand-built plans and size dicts.
"""

import pytest

from repro.query.executor import _QueryContext
from repro.query.plan import (
    ConjunctionPlan,
    PredicateRoute,
    group_label,
    plan_conjunction,
    plan_group_pushdown,
    route_predicate,
)
from repro.query.predicates import Predicate
from repro.scribe.buckets import BucketSpec
from repro.sim.engine import Simulator


@pytest.fixture()
def context():
    ctx = _QueryContext(Simulator(), ["A"])
    ctx.bucket_index.register(BucketSpec("u", 0.0, 100.0, 4))
    return ctx


class TestDirectRoutes:
    def test_unbucketed_attribute_uses_legacy_candidate_trees(self, context):
        route = route_predicate(context, Predicate("GPU", "=", True))
        assert route.strategy == "direct"
        assert route.trees == ["GPU"]
        assert route.exact and not route.bucketed

    def test_non_numeric_literal_on_bucketed_attribute_stays_direct(
            self, context):
        route = route_predicate(context, Predicate("u", "=", "high"))
        assert route.strategy == "direct"
        assert route.trees == ["u=high"]


class TestBucketRoutes:
    def test_between_probes_only_overlapping_buckets(self, context):
        route = route_predicate(context, Predicate("u", "between", (10, 30)))
        assert route.strategy == "probe"
        assert route.trees == ["u[0,25)", "u[25,50)"]
        # The first bucket extends to -inf: membership does not imply the
        # predicate, so the step-4 check stays strict.
        assert route.exact is False

    def test_fully_contained_subset_is_exact(self, context):
        route = route_predicate(context, Predicate("u", ">=", 75))
        assert route.strategy == "probe"
        assert route.trees == ["u[75,100)"]
        assert route.exact is True

    def test_planner_off_floods_the_whole_family(self, context):
        route = route_predicate(context, Predicate("u", "between", (10, 30)),
                                planner_on=False)
        assert route.strategy == "flood"
        assert route.trees == ["u[0,25)", "u[25,50)", "u[50,75)", "u[75,100)"]
        assert route.exact is False

    def test_not_equal_operator_floods(self, context):
        route = route_predicate(context, Predicate("u", "<>", 50))
        assert route.strategy == "flood"
        assert len(route.trees) == 4

    def test_empty_interval_searches_nothing(self, context):
        route = route_predicate(context, Predicate("u", "between", (60, 40)))
        assert route.strategy == "empty"
        assert route.trees == []
        assert route.exact is True


class TestGoldenPlans:
    """String-compared plans: a regression shows up as a plan diff."""

    def test_conjunction_plan_is_pinned(self, context):
        plan = plan_conjunction(
            context, [Predicate("u", ">=", 75), Predicate("GPU", "=", True)])
        golden = [
            "u >= 75  ->  probe  1 bucket(s)  (1/4 bucket(s) overlap)",
            "GPU = True  ->  direct  1 tree(s)  (no bucket index)",
        ]
        assert [r.describe() for r in plan.routes] == golden

    def test_planner_off_plan_is_pinned(self, context):
        plan = plan_conjunction(
            context, [Predicate("u", "between", (10, 30))], planner_on=False)
        golden = [
            "u BETWEEN 10 AND 30  ->  flood  4 bucket(s)  [strict]  "
            "(planner off)",
        ]
        assert [r.describe() for r in plan.routes] == golden


class TestGroupPushdown:
    def test_pushdown_when_predicates_align_with_buckets(self, context):
        buckets = plan_group_pushdown(
            context, [Predicate("u", ">=", 75)], "u")
        assert [b.index for b in buckets] == [3]

    def test_no_predicates_pushes_down_every_bucket(self, context):
        buckets = plan_group_pushdown(context, [], "u")
        assert [b.index for b in buckets] == [0, 1, 2, 3]

    def test_partial_overlap_disables_pushdown(self, context):
        assert plan_group_pushdown(
            context, [Predicate("u", "between", (10, 30))], "u") is None

    def test_foreign_predicate_disables_pushdown(self, context):
        assert plan_group_pushdown(
            context, [Predicate("GPU", "=", True)], "u") is None

    def test_unbucketed_group_attribute_disables_pushdown(self, context):
        assert plan_group_pushdown(context, [], "vcpu") is None

    def test_planner_off_disables_pushdown(self, context):
        assert plan_group_pushdown(context, [Predicate("u", ">=", 75)], "u",
                                   planner_on=False) is None

    def test_intersection_across_predicates(self, context):
        buckets = plan_group_pushdown(
            context, [Predicate("u", ">=", 25), Predicate("u", "<", 75)], "u")
        assert [b.index for b in buckets] == [1, 2]


class TestGroupLabel:
    def test_bucketed_numeric_value_labels_by_bucket(self, context):
        assert group_label(context, "u", 30.0) == "u[25,50)"

    def test_unbucketed_value_labels_canonically(self, context):
        assert group_label(context, "vcpu", 8.0) == "8"
        assert group_label(context, "u", "n/a") == "n/a"


class TestPlanConjunction:
    """The synthetic GROUP BY routes, and what each plan probes / counts."""

    def test_pushdown_plan_is_one_synthetic_route(self, context):
        plan = plan_conjunction(context, [Predicate("u", ">=", 50)], "u")
        assert [b.index for b in plan.pushdown] == [2, 3]
        assert [r.predicate for r in plan.routes] == [None]
        assert plan.probes() == ["u[50,75)", "u[75,100)"]
        assert plan.strategies() == ["pushdown"]
        assert not plan.visits_members()

    def test_disjunct_may_not_push_down(self, context):
        plan = plan_conjunction(context, [Predicate("u", ">=", 50)], "u",
                                pushdown_ok=False)
        assert plan.pushdown is None
        assert plan.strategies() == ["probe"] and plan.visits_members()

    def test_group_by_without_where_searches_the_whole_family(self, context):
        plan = plan_conjunction(context, [], "u", planner_on=False)
        assert plan.pushdown is None
        assert len(plan.probes()) == 4
        # The synthetic family is searched but is no predicate's strategy.
        assert plan.strategies() == []

    def test_unbucketed_group_by_without_where_has_nothing_to_search(
            self, context):
        plan = plan_conjunction(context, [], "vcpu")
        assert plan.routes == [] and plan.probes() == []
        assert not plan.visits_members()

    def test_probes_are_deduped_in_send_order(self, context):
        plan = plan_conjunction(
            context, [Predicate("u", "between", (10, 30)),
                      Predicate("GPU", "=", True), Predicate("u", "<", 60)])
        assert plan.probes() == ["u[0,25)", "u[25,50)", "GPU", "u[50,75)"]


class TestChoose:
    """Step 3 as a pure function of (plan, probed sizes)."""

    A, B = Predicate("a", "=", 1), Predicate("b", "=", 2)

    @staticmethod
    def choose(plan, sizes):
        return plan.choose({f"S/{t}": n for t, n in sizes.items()},
                           lambda tree: f"S/{tree}")

    def test_first_family_wins_a_tie(self):
        plan = ConjunctionPlan([PredicateRoute(self.A, "direct", ["a"]),
                                PredicateRoute(self.B, "direct", ["b"])])
        topics, checks = self.choose(plan, {"a": 3, "b": 3})
        assert topics == ["S/a"]
        assert checks == [(self.A.pack(), True), (self.B.pack(), False)]

    def test_smallest_populated_family_wins(self):
        plan = ConjunctionPlan([PredicateRoute(self.A, "direct", ["a"]),
                                PredicateRoute(self.B, "direct", ["b"])])
        topics, checks = self.choose(plan, {"a": 0, "b": 7})
        assert topics == ["S/b"]
        assert checks == [(self.A.pack(), False), (self.B.pack(), True)]

    def test_empty_trees_dropped_and_the_rest_ascend(self):
        plan = ConjunctionPlan([PredicateRoute(
            self.A, "probe", ["t1", "t2", "t3", "t4"], bucketed=True)])
        topics, _ = self.choose(plan, {"t1": 5, "t2": 0, "t3": 2, "t4": 5})
        assert topics == ["S/t3", "S/t1", "S/t4"]

    def test_all_empty_is_none(self):
        plan = ConjunctionPlan([PredicateRoute(self.A, "direct", ["a"]),
                                PredicateRoute(self.B, "empty")])
        assert self.choose(plan, {"a": 0}) is None
        assert ConjunctionPlan([]).choose({}, str) is None

    def test_inexact_family_stays_strict_when_chosen(self):
        plan = ConjunctionPlan([
            PredicateRoute(self.A, "probe", ["a"], exact=False, bucketed=True),
            PredicateRoute(self.B, "direct", ["b"])])
        _, checks = self.choose(plan, {"a": 1, "b": 9})
        assert checks == [(self.A.pack(), False), (self.B.pack(), False)]

    def test_synthetic_group_route_contributes_no_check(self):
        plan = ConjunctionPlan([
            PredicateRoute(None, "flood", ["g1", "g2"], bucketed=True)])
        assert self.choose(plan, {"g1": 2, "g2": 1}) == (["S/g2", "S/g1"], [])
