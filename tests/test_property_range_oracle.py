"""Oracle-backed property suite for the range planner (ISSUE 6 tentpole).

Each seed builds a small federation with randomly-bucketed numeric
attributes and zipf-skewed values, then fires random range / GROUP BY
queries through the full five-step protocol twice — planner on (the
default) and planner off (``QueryOptions(planner=False)``, the
bucket-unaware flood baseline) — and checks both against a brute-force
oracle over every node's raw attributes:

* range results are row-identical (same address set) to the oracle;
* planner-on and planner-off agree exactly;
* GROUP BY rows equal the oracle's per-bucket counts, whether they were
  answered by roll-up pushdown or by the collect path;
* all of the above still hold when the *same* queries are asked again
  after a random subset of nodes moved across bucket boundaries
  (``update_attribute`` + settle): every query probes the trees as they
  are now, so nothing learnt by the first batch may leak into the second
  (a TTL on step-1 probe answers would serve pre-update sizes as pushdown
  counts).

``RBAY_ORACLE_SEEDS`` scales the seed count (default 20; the coverage
gate lowers it to keep its instrumented run fast).
"""

import os
import random

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.query.options import QueryOptions
from repro.query.predicates import Predicate
from repro.workloads.skewed import zipf_weights

SEEDS = int(os.environ.get("RBAY_ORACLE_SEEDS", "20"))

ATTRIBUTES = ["CPU_utilization", "mem_free", "disk_io"]
QUERIES_PER_SEED = 5


def build_plane(rng, seed):
    """A small federation with 1-2 randomly-bucketed skewed attributes."""
    plane = RBay(RBayConfig(
        seed=seed, synthetic_sites=3, nodes_per_site=6, jitter=False,
    )).build()
    schema = {}
    for attribute in rng.sample(ATTRIBUTES, rng.choice([1, 2])):
        lo = rng.uniform(0.0, 50.0)
        hi = lo + rng.uniform(10.0, 500.0)
        count = rng.randint(2, 6)
        weights = zipf_weights(count, rng.uniform(0.0, 1.5))
        width = (hi - lo) / count
        for node in plane.nodes:
            if rng.random() < 0.1:
                continue  # ~10% of nodes lack the attribute entirely
            index = rng.choices(range(count), weights=weights)[0]
            value = lo + width * index + rng.uniform(0.0, width)
            node.define_attribute(attribute, value)
        # Values exist before registration, so each node joins its
        # correct bucket tree immediately.
        schema[attribute] = plane.register_buckets(attribute, lo, hi, count)
    plane.settle(3_000.0)
    return plane, schema


def random_range_sql(rng, attribute, lo, hi):
    """One random range predicate as SQL text (sometimes literal-on-left)."""
    span = hi - lo
    a = lo + rng.uniform(-0.2, 1.2) * span
    b = lo + rng.uniform(-0.2, 1.2) * span
    a, b = max(0.0, a), max(0.0, b)
    shape = rng.randrange(4)
    if shape == 0:
        low, high = min(a, b), max(a, b)
        if rng.random() < 0.1:
            low, high = high, low  # inverted BETWEEN accepts nothing
        return (f"{attribute} BETWEEN {low:g} AND {high:g}",
                Predicate(attribute, "between", (low, high)))
    op = rng.choice(["<", "<=", ">", ">="])
    if shape == 1:
        mirrored = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
        return (f"{a:g} {mirrored} {attribute}", Predicate(attribute, op, a))
    return (f"{attribute} {op} {a:g}", Predicate(attribute, op, a))


def oracle_addresses(plane, predicates):
    return sorted(
        node.address for node in plane.nodes
        if all(node.has_attribute(p.attribute)
               and p.matches(node.attribute_value(p.attribute))
               for p in predicates))


def oracle_groups(plane, predicates, group_attr, spec):
    counts = {}
    for node in plane.nodes:
        if not all(node.has_attribute(p.attribute)
                   and p.matches(node.attribute_value(p.attribute))
                   for p in predicates):
            continue
        if not node.has_attribute(group_attr):
            continue
        bucket = spec.bucket_of(node.attribute_value(group_attr))
        counts[bucket.label] = counts.get(bucket.label, 0) + 1
    return sorted(counts.items())


def release_everywhere(plane, query_id):
    for node in plane.nodes:
        node.reservation.release(query_id)


def run_both_arms(plane, sql):
    on = plane.query(sql)
    release_everywhere(plane, on.query_id)
    off = plane.query(sql, options=QueryOptions(planner=False))
    release_everywhere(plane, off.query_id)
    return on, off


def assert_range_matches_oracle(plane, seed, clause, predicate):
    sql = f"SELECT * FROM * WHERE {clause}"
    on, off = run_both_arms(plane, sql)
    expected = oracle_addresses(plane, [predicate])
    got_on = sorted(e["address"] for e in on.entries)
    got_off = sorted(e["address"] for e in off.entries)
    assert got_on == expected, (seed, sql)
    assert got_off == expected, (seed, sql)


def assert_groups_match_oracle(plane, seed, group_attr, spec,
                               clause=None, predicates=()):
    sql = f"SELECT * FROM * GROUP BY {group_attr}"
    if clause is not None:
        sql = f"SELECT * FROM * WHERE {clause} GROUP BY {group_attr}"
    on, off = run_both_arms(plane, sql)
    expected = oracle_groups(plane, predicates, group_attr, spec)
    got_on = sorted((e["group"], e["count"]) for e in on.entries)
    got_off = sorted((e["group"], e["count"]) for e in off.entries)
    assert got_on == expected, (seed, sql)
    assert got_off == expected, (seed, sql)
    # Group queries must never leave reservations behind.
    for node in plane.nodes:
        assert node.reservation.is_free(), (seed, sql, node.address)


def move_across_buckets(rng, plane, schema):
    """Give a random subset (>= 2) of each attribute's holders a value in
    a *different* bucket."""
    for attribute, spec in sorted(schema.items()):
        width = (spec.hi - spec.lo) / spec.count
        holders = [n for n in plane.nodes if n.has_attribute(attribute)]
        for node in rng.sample(holders, rng.randint(2, len(holders) // 2)):
            old = spec.bucket_of(node.attribute_value(attribute)).index
            index = rng.choice([i for i in range(spec.count) if i != old])
            node.update_attribute(
                attribute, spec.lo + width * index + rng.uniform(0.0, width))


@pytest.mark.parametrize("seed", range(SEEDS))
def test_range_queries_match_oracle_planner_on_and_off(seed):
    rng = random.Random(seed * 7919 + 13)
    plane, schema = build_plane(rng, seed)
    for _ in range(QUERIES_PER_SEED):
        attribute = rng.choice(sorted(schema))
        spec = schema[attribute]
        clause, predicate = random_range_sql(rng, attribute, spec.lo, spec.hi)
        assert_range_matches_oracle(plane, seed, clause, predicate)


@pytest.mark.parametrize("seed", range(SEEDS))
def test_group_by_matches_oracle_planner_on_and_off(seed):
    rng = random.Random(seed * 104729 + 7)
    plane, schema = build_plane(rng, seed)
    for _ in range(QUERIES_PER_SEED):
        group_attr = rng.choice(sorted(schema))
        spec = schema[group_attr]
        clause, predicates = None, []
        if rng.random() < 0.6:
            # Sometimes boundary-aligned (pushdown-eligible), sometimes not.
            if rng.random() < 0.5:
                cut = spec.boundary(rng.randint(1, spec.count - 1))
                clause = f"{group_attr} >= {cut:g}"
                predicates = [Predicate(group_attr, ">=", cut)]
            else:
                clause, predicate = random_range_sql(
                    rng, group_attr, spec.lo, spec.hi)
                predicates = [predicate]
        assert_groups_match_oracle(plane, seed, group_attr, spec,
                                   clause, predicates)


@pytest.mark.parametrize("seed", range(SEEDS))
def test_answers_stay_exact_under_updates(seed):
    rng = random.Random(seed * 15485863 + 29)
    plane, schema = build_plane(rng, seed)
    range_queries, group_queries = [], []
    for attribute, spec in sorted(schema.items()):
        range_queries.append(
            random_range_sql(rng, attribute, spec.lo, spec.hi))
        # GROUP BY three ways: no WHERE and a boundary-aligned cut (both
        # pushed down into the bucket roll-ups with the planner on), and a
        # mid-bucket cut (per-member collect path on both arms).
        group_queries.append((attribute, spec))
        edge = spec.boundary(rng.randint(1, spec.count - 1))
        for cut in (edge, edge - (spec.hi - spec.lo) / spec.count / 2):
            cut = float(f"{cut:g}")  # the value the SQL text carries
            group_queries.append((attribute, spec, f"{attribute} >= {cut:g}",
                                  [Predicate(attribute, ">=", cut)]))

    def ask_everything():
        for clause, predicate in range_queries:
            assert_range_matches_oracle(plane, seed, clause, predicate)
        for args in group_queries:
            assert_groups_match_oracle(plane, seed, *args)

    ask_everything()
    move_across_buckets(rng, plane, schema)
    plane.settle(3_000.0)
    ask_everything()
    assert plane.counters.get("query.plan.pushdown") > 0
