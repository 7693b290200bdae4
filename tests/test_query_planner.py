"""Golden tests pinning the range planner's routes.

Each test asserts the exact strategy and bucket subset the planner must
pick for a predicate, and the closed-form message estimate EXPLAIN
prints.  The golden-plan comparisons diff ``PredicateRoute.describe()``
strings, so a routing regression fails with a readable plan diff instead
of a bare boolean.
"""

import pytest

from repro.query.executor import _QueryContext
from repro.query.planner import (
    DEFAULT_SIZE_ESTIMATE,
    group_label,
    plan_group_pushdown,
    route_predicate,
    route_predicates,
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
        route = route_predicate(context, Predicate("GPU", "=", True), 5)
        assert route.strategy == "direct"
        assert route.trees == ["GPU"]
        assert route.exact and not route.bucketed

    def test_non_numeric_literal_on_bucketed_attribute_stays_direct(
            self, context):
        route = route_predicate(context, Predicate("u", "=", "high"), 5)
        assert route.strategy == "direct"
        assert route.trees == ["u=high"]


class TestBucketRoutes:
    def test_between_probes_only_overlapping_buckets(self, context):
        route = route_predicate(context, Predicate("u", "between", (10, 30)),
                                None)
        assert route.strategy == "probe"
        assert route.trees == ["u[0,25)", "u[25,50)"]
        # The first bucket extends to -inf: membership does not imply the
        # predicate, so the step-4 check stays strict.
        assert route.exact is False

    def test_fully_contained_subset_is_exact(self, context):
        route = route_predicate(context, Predicate("u", ">=", 75), None)
        assert route.strategy == "probe"
        assert route.trees == ["u[75,100)"]
        assert route.exact is True

    def test_estimate_is_two_per_probe_plus_assumed_visits(self, context):
        route = route_predicate(context, Predicate("u", "between", (10, 30)),
                                None)
        assert route.costs == {
            "probe": 2 * 2 + 2 * DEFAULT_SIZE_ESTIMATE,
            "flood": 2 * 4 + 4 * DEFAULT_SIZE_ESTIMATE,
        }

    def test_k_caps_the_visit_component(self, context):
        route = route_predicate(context, Predicate("u", "between", (10, 30)),
                                3)
        assert route.costs == {"probe": 2 * 2 + 3, "flood": 2 * 4 + 3}

    def test_planner_off_floods_the_whole_family(self, context):
        route = route_predicate(context, Predicate("u", "between", (10, 30)),
                                None, planner_on=False)
        assert route.strategy == "flood"
        assert route.trees == ["u[0,25)", "u[25,50)", "u[50,75)", "u[75,100)"]
        assert route.exact is False

    def test_not_equal_operator_floods(self, context):
        route = route_predicate(context, Predicate("u", "<>", 50), None)
        assert route.strategy == "flood"
        assert len(route.trees) == 4

    def test_empty_interval_searches_nothing(self, context):
        route = route_predicate(context, Predicate("u", "between", (60, 40)),
                                None)
        assert route.strategy == "empty"
        assert route.trees == []
        assert route.exact is True

    def test_probe_never_costs_more_than_flood(self, context):
        for predicate in [Predicate("u", "between", (10, 30)),
                          Predicate("u", "<", 5),
                          Predicate("u", ">=", 99)]:
            route = route_predicate(context, predicate, None)
            assert route.costs["probe"] <= route.costs["flood"], predicate


class TestGoldenPlans:
    """String-compared plans: a regression shows up as a plan diff."""

    def test_conjunction_plan_is_pinned(self, context):
        routes = route_predicates(
            context,
            [Predicate("u", ">=", 75), Predicate("GPU", "=", True)], 5)
        golden = [
            "u >= 75  ->  probe  1 bucket(s)  [cost probe=7, flood=13]  "
            "(1/4 bucket(s) overlap)",
            "GPU = True  ->  direct  1 tree(s)  (no bucket index)",
        ]
        assert [r.describe() for r in routes] == golden

    def test_planner_off_plan_is_pinned(self, context):
        routes = route_predicates(
            context, [Predicate("u", "between", (10, 30))], None,
            planner_on=False)
        golden = [
            "u BETWEEN 10 AND 30  ->  flood  4 bucket(s)  [cost flood=40]  "
            "(planner off)",
        ]
        assert [r.describe() for r in routes] == golden


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
