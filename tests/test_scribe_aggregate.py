"""Unit tests for aggregation functions and in-tree aggregation."""

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.scribe.aggregate import (
    AGGREGATE_FACTORIES,
    AGGREGATE_FUNCTIONS,
    AggregateFunction,
    AllFunction,
    AnyFunction,
    AvgFunction,
    CountFunction,
    FilterCountFunction,
    MaxFunction,
    MinFunction,
    SumFunction,
    make_aggregate,
)


class TestFunctions:
    def test_registry_contains_core_functions(self):
        for name in ("count", "sum", "min", "max", "avg", "any", "all"):
            assert name in AGGREGATE_FUNCTIONS

    def test_count(self):
        fn = CountFunction()
        assert fn.lift("anything") == 1
        assert fn.combine(fn.zero(), fn.lift(None)) == 1
        assert fn.combine(3, 4) == 7

    def test_sum(self):
        fn = SumFunction()
        acc = fn.zero()
        for value in (1, 2.5, 3):
            acc = fn.combine(acc, fn.lift(value))
        assert acc == 6.5

    def test_min_with_empty_subtrees(self):
        fn = MinFunction()
        assert fn.combine(None, None) is None
        assert fn.combine(None, 5.0) == 5.0
        assert fn.combine(3.0, 5.0) == 3.0

    def test_max(self):
        fn = MaxFunction()
        assert fn.combine(fn.lift(2), fn.lift(9)) == 9.0
        assert fn.finalize(None) is None

    def test_avg_hierarchical_property(self):
        """avg over a combined set equals avg of the union of leaves."""
        fn = AvgFunction()
        left = fn.combine(fn.lift(10), fn.lift(20))
        right = fn.lift(60)
        assert fn.finalize(fn.combine(left, right)) == pytest.approx(30.0)

    def test_avg_empty_is_none(self):
        fn = AvgFunction()
        assert fn.finalize(fn.zero()) is None

    def test_any_all(self):
        any_fn, all_fn = AnyFunction(), AllFunction()
        assert any_fn.combine(False, True) is True
        assert any_fn.zero() is False
        assert all_fn.combine(True, False) is False
        assert all_fn.zero() is True

    def test_filter_count(self):
        fn = FilterCountFunction(lambda v: v < 10, name="below10")
        acc = fn.zero()
        for value in (5, 15, 3):
            acc = fn.combine(acc, fn.lift(value))
        assert acc == 2
        assert fn.name == "below10"

    def test_make_aggregate_returns_shared_builtin(self):
        assert make_aggregate("sum") is AGGREGATE_FUNCTIONS["sum"]

    def test_make_aggregate_filter_count_with_predicate(self):
        fn = make_aggregate("filter_count", lambda v: v > 10, name="busy")
        assert isinstance(fn, FilterCountFunction)
        assert fn.name == "busy"
        assert fn.lift(42) == 1 and fn.lift(3) == 0
        # Parameterized lookups construct fresh instances every time.
        assert make_aggregate("filter_count", lambda v: True) is not fn

    def test_make_aggregate_unknown_name_raises(self):
        with pytest.raises(KeyError):
            make_aggregate("no_such_aggregate")

    def test_make_aggregate_args_to_nonparameterized_raises(self):
        with pytest.raises(KeyError):
            make_aggregate("sum", lambda v: v)

    def test_filter_count_registered_as_factory(self):
        assert AGGREGATE_FACTORIES["filter_count"] is FilterCountFunction
        assert "filter_count" not in AGGREGATE_FUNCTIONS

    def test_combine_associative_commutative(self):
        fn = SumFunction()
        a, b, c = fn.lift(1), fn.lift(2), fn.lift(3)
        assert fn.combine(fn.combine(a, b), c) == fn.combine(a, fn.combine(b, c))
        assert fn.combine(a, b) == fn.combine(b, a)


#: Every built-in, plus a parameterized filter (NaN fails its predicate).
_FOLDED = {**AGGREGATE_FUNCTIONS,
           "filter_count": make_aggregate("filter_count", lambda v: v > 1.0)}

_FLOATS = st.one_of(st.floats(), st.sampled_from(
    (0.0, -0.0, float("inf"), float("-inf"), float("nan"))))
_LOCALS = st.one_of(_FLOATS, st.integers(-2**60, 2**60))
_COUNTS = st.integers(0, 2**62)

#: The accumulators each function's children push.
_CHILD_ACCS = {
    "count": _COUNTS, "filter_count": _COUNTS, "sum": _FLOATS,
    "min": st.one_of(st.none(), _FLOATS), "max": st.one_of(st.none(), _FLOATS),
    "avg": st.tuples(_FLOATS, _COUNTS),
    "any": st.booleans(), "all": st.booleans(),
}


def _exact(value):
    """``value`` as exact types and raw bits: ``0.0`` and ``-0.0`` differ,
    a NaN equals itself, ``1`` and ``1.0`` and ``True`` all differ."""
    if type(value) is float:
        return float, struct.pack(">d", value)
    if type(value) is tuple:
        return tuple, tuple(_exact(item) for item in value)
    return type(value), value


_NAN, _INF = float("nan"), float("inf")


@settings(max_examples=400, deadline=None)
@example(("min", [0.0, -0.0], []))  # a tie keeps the first zero
@example(("min", [0.0], [-0.0]))
@example(("min", [], [-0.0, None, 0.0]))
@example(("max", [-0.0, 0.0], []))
@example(("max", [-0.0], [0.0]))
@example(("max", [], [0.0, None, -0.0]))
@example(("min", [1.0], [_NAN, 0.5]))  # NaN compares false either way
@example(("max", [], [None, _NAN, 2.5]))
@example(("sum", [1.0], [1e16, -1e16]))  # own value first: 1.0, not 0.0
@example(("avg", [1.0], [(1e16, 1), (-1e16, 1)]))
@given(st.sampled_from(sorted(_FOLDED)).flatmap(lambda name: st.tuples(
    st.just(name), st.lists(_LOCALS, max_size=2),
    st.lists(_CHILD_ACCS[name], max_size=6))))
def test_fold_is_the_generic_fold_bit_for_bit(case):
    """Every ``fold`` override does what ``zero``/``lift``/``combine`` do,
    in the same order: the result has the same type and the same bits."""
    name, values, accs = case
    fn = _FOLDED[name]
    assert _exact(fn.fold(values, accs)) == _exact(
        AggregateFunction.fold(fn, values, accs))


class TestInTreeAggregation:
    @pytest.fixture
    def tree(self, sim, streams, scribe_overlay):
        rng = streams.stream("agg")
        members = rng.sample(scribe_overlay.nodes, 25)
        for i, node in enumerate(members):
            node.app("scribe").join(node, "util")
            node.app("scribe").set_local(node, "util", "sum", float(i))
            node.app("scribe").set_local(node, "util", "min", float(i))
            node.app("scribe").set_local(node, "util", "max", float(i))
            node.app("scribe").set_local(node, "util", "avg", float(i))
        sim.run()
        return scribe_overlay, members

    def query(self, overlay, names):
        asker = overlay.nodes[0]
        return asker.app("scribe").query_aggregate(asker, "util", names).result()

    def test_sum_at_root(self, tree):
        overlay, members = tree
        values = self.query(overlay, ["sum"])
        assert values["sum"] == sum(range(25))

    def test_min_max_at_root(self, tree):
        overlay, members = tree
        values = self.query(overlay, ["min", "max"])
        assert values["min"] == 0.0
        assert values["max"] == 24.0

    def test_avg_at_root(self, tree):
        overlay, members = tree
        values = self.query(overlay, ["avg"])
        assert values["avg"] == pytest.approx(12.0)

    def test_update_propagates(self, sim, tree):
        overlay, members = tree
        node = members[0]
        node.app("scribe").set_local(node, "util", "max", 999.0)
        sim.run()
        assert self.query(overlay, ["max"])["max"] == 999.0

    def test_clear_local_removes_contribution(self, sim, tree):
        overlay, members = tree
        top = members[24]
        top.app("scribe").clear_local(top, "util", "max")
        sim.run()
        assert self.query(overlay, ["max"])["max"] == 23.0

    def test_leave_removes_contribution(self, sim, tree):
        overlay, members = tree
        top = members[24]
        top.app("scribe").leave(top, "util")
        sim.run()
        assert self.query(overlay, ["sum"])["sum"] == sum(range(24))

    def test_unknown_aggregate_returns_none(self, tree):
        overlay, _ = tree
        assert self.query(overlay, ["nonsense"])["nonsense"] is None

    def test_unknown_local_aggregate_raises(self, scribe_overlay):
        node = scribe_overlay.nodes[0]
        with pytest.raises(KeyError):
            node.app("scribe").set_local(node, "t", "bogus", 1)

    def test_aggregation_survives_member_failure(self, sim, tree):
        overlay, members = tree
        members[24].fail()
        sim.run()
        for _ in range(3):
            for node in overlay.live_nodes():
                node.app("scribe").maintain(node)
            sim.run()
        values = self.query(overlay, ["max"])
        assert values["max"] == 23.0
