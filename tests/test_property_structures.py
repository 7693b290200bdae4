"""Property-based tests for leaf sets, aggregates, stats, and SQL."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import jain_fairness, mean, percentile, stddev
from repro.pastry.leafset import LeafSet
from repro.pastry.nodeid import NodeId
from repro.pastry.routing_table import NodeRef, RoutingTable
from repro.query.sql import parse_query
from repro.scribe.aggregate import AvgFunction, MaxFunction, MinFunction, SumFunction

ids = st.integers(min_value=0, max_value=(1 << 128) - 1)


@given(st.lists(ids, min_size=2, max_size=40, unique=True))
def test_leafset_closest_is_globally_closest_when_not_full(values):
    owner = NodeId(values[0])
    leaf_set = LeafSet(owner, size=128)  # big enough to hold everyone
    refs = []
    for i, value in enumerate(values[1:], start=1):
        ref = NodeRef(NodeId(value), i, 0)
        leaf_set.add(ref)
        refs.append(ref)
    key = NodeId(values[-1] ^ 0xABCDEF)
    reported = leaf_set.closest(key)
    best = min(refs, key=lambda r: (r.node_id.distance(key), r.node_id.value))
    assert reported.node_id.distance(key) == best.node_id.distance(key)


@given(st.lists(ids, min_size=3, max_size=40, unique=True), ids)
def test_leafset_closer_than_owner_improves_distance(values, key_value):
    owner = NodeId(values[0])
    leaf_set = LeafSet(owner, size=16)
    for i, value in enumerate(values[1:], start=1):
        leaf_set.add(NodeRef(NodeId(value), i, 0))
    key = NodeId(key_value)
    candidate = leaf_set.closer_than_owner(key)
    if candidate is not None:
        assert candidate.node_id.distance(key) <= owner.distance(key)


@given(st.lists(ids, min_size=2, max_size=50, unique=True))
def test_routing_table_entries_share_claimed_prefix(values):
    owner = NodeId(values[0])
    table = RoutingTable(owner)
    for i, value in enumerate(values[1:], start=1):
        table.add(NodeRef(NodeId(value), i, 0, proximity_ms=float(i)))
    for ref in table.entries():
        row = owner.shared_prefix_len(ref.node_id)
        assert table.entry(row, ref.node_id.digit(row)) is not None


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=50),
       st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=50))
def test_aggregates_hierarchical_property(left, right):
    """combine(agg(left), agg(right)) == agg(left + right) — the paper's
    'hierarchical computation property' that makes tree roll-up valid."""
    for fn in (SumFunction(), MinFunction(), MaxFunction(), AvgFunction()):
        def fold(values):
            acc = fn.zero()
            for v in values:
                acc = fn.combine(acc, fn.lift(v))
            return acc

        combined = fn.combine(fold(left), fold(right))
        direct = fold(left + right)
        a, b = fn.finalize(combined), fn.finalize(direct)
        if isinstance(a, float) and isinstance(b, float):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)
        else:
            assert a == b


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=100))
def test_percentile_bounds_and_monotonicity(values):
    p0 = percentile(values, 0)
    p50 = percentile(values, 50)
    p100 = percentile(values, 100)
    assert p0 == min(values)
    assert p100 == max(values)
    assert p0 <= p50 <= p100


@given(st.lists(st.floats(min_value=0.001, max_value=1e6, allow_nan=False),
                min_size=1, max_size=50))
def test_jain_fairness_in_unit_interval(values):
    index = jain_fairness(values)
    assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=50))
def test_stddev_zero_iff_constant(values):
    sd = stddev(values)
    assert sd >= 0
    if len(set(values)) == 1:
        # Identical inputs: zero up to float summation error.
        assert sd <= max(abs(values[0]), 1.0) * 1e-7


_attr_names = st.text(alphabet="abcdefgh_", min_size=1, max_size=10)
_ops = st.sampled_from(["=", "<", "<=", ">", ">=", "<>"])
_values = st.one_of(
    st.integers(min_value=0, max_value=10_000),
    st.text(alphabet="abcxyz", min_size=1, max_size=8),
)


@given(st.integers(min_value=1, max_value=99),
       st.lists(st.tuples(_attr_names, _ops, _values), min_size=1, max_size=5))
def test_sql_round_trip_via_str(k, raw_predicates):
    clauses = []
    for attr, op, value in raw_predicates:
        literal = f"'{value}'" if isinstance(value, str) else str(value)
        clauses.append(f"{attr} {op} {literal}")
    sql = f"SELECT {k} FROM * WHERE " + " AND ".join(clauses)
    query = parse_query(sql)
    reparsed = parse_query(str(query))
    assert reparsed.k == query.k == k
    assert [p.pack() for p in reparsed.predicates] == [p.pack() for p in query.predicates]


@given(st.integers(min_value=0, max_value=2**32))
def test_routing_is_deterministic_per_seed(seed):
    """Two RNGs with the same seed produce identical NodeIds (sim determinism)."""
    assert NodeId.random(random.Random(seed)) == NodeId.random(random.Random(seed))
