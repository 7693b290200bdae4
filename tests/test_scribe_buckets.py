"""Unit tests for the bucketed range indices (repro.scribe.buckets)."""

import pytest

from repro.scribe.buckets import (
    Bucket,
    BucketIndex,
    BucketSpec,
    interval_contains,
    intervals_overlap,
    predicate_interval,
)


class TestPredicateInterval:
    def test_between_is_closed_on_both_ends(self):
        assert predicate_interval("between", (10, 30)) == (10.0, True, 30.0, True)

    def test_strict_and_inclusive_comparisons(self):
        assert predicate_interval("<", 5) == (None, False, 5.0, False)
        assert predicate_interval("<=", 5) == (None, False, 5.0, True)
        assert predicate_interval(">", 5) == (5.0, False, None, False)
        assert predicate_interval(">=", 5) == (5.0, True, None, False)

    def test_equality_is_a_point_interval(self):
        assert predicate_interval("=", 7) == (7.0, True, 7.0, True)

    def test_non_range_shapes_return_none(self):
        assert predicate_interval("<>", 5) is None
        assert predicate_interval("=", "c3.large") is None
        assert predicate_interval("<", True) is None
        assert predicate_interval("between", (1, "x")) is None
        assert predicate_interval("between", (1,)) is None

    def test_inverted_between_is_empty_not_none(self):
        interval = predicate_interval("between", (30, 10))
        assert interval is not None
        assert not intervals_overlap(interval, (None, False, None, False))


class TestIntervalAlgebra:
    def test_touching_boundaries_need_both_inclusive(self):
        closed_at_10 = (0.0, True, 10.0, True)
        open_at_10 = (10.0, False, 20.0, False)
        from_10 = (10.0, True, 20.0, False)
        assert not intervals_overlap(closed_at_10, open_at_10)
        assert intervals_overlap(closed_at_10, from_10)

    def test_containment_respects_bound_inclusivity(self):
        outer = (0.0, True, 10.0, False)
        assert interval_contains(outer, (0.0, True, 5.0, True))
        assert not interval_contains(outer, (0.0, True, 10.0, True))
        assert not interval_contains((None, False, 10.0, False),
                                     (None, False, None, False))
        assert interval_contains((None, False, None, False),
                                 (1.0, True, 2.0, True))


class TestBucketSpec:
    def test_boundaries_are_evenly_spaced_and_deterministic(self):
        spec = BucketSpec("u", 0.0, 100.0, 4)
        assert [spec.boundary(i) for i in range(5)] == [0, 25, 50, 75, 100]
        assert [b.tree for b in spec.buckets] == [
            "u[0,25)", "u[25,50)", "u[50,75)", "u[75,100)"]

    def test_invalid_specs_are_rejected(self):
        with pytest.raises(ValueError):
            BucketSpec("u", 0.0, 100.0, 0)
        with pytest.raises(ValueError):
            BucketSpec("u", 100.0, 0.0, 4)

    def test_bucket_of_partitions_the_real_line(self):
        spec = BucketSpec("u", 0.0, 100.0, 4)
        assert spec.bucket_of(0).index == 0
        assert spec.bucket_of(24.999).index == 0
        assert spec.bucket_of(25).index == 1
        assert spec.bucket_of(99.999).index == 3
        # Out-of-range values clamp into the infinite edge buckets.
        assert spec.bucket_of(-5).index == 0
        assert spec.bucket_of(150).index == 3
        assert spec.bucket_of("not a number") is None
        assert spec.bucket_of(True) is None

    def test_every_value_lands_in_exactly_one_bucket(self):
        spec = BucketSpec("u", 0.0, 100.0, 7)  # non-exact float boundaries
        for value in [0, 14.2857, 14.2858, 50, 99.9, -1, 101, 100.0 / 7.0]:
            holders = [b for b in spec.buckets if b.contains(value)]
            assert len(holders) == 1
            assert spec.bucket_of(value) == holders[0]

    def test_covering_returns_overlapping_buckets_in_order(self):
        spec = BucketSpec("u", 0.0, 100.0, 4)
        assert [b.index for b in spec.covering("between", (10, 30))] == [0, 1]
        assert [b.index for b in spec.covering("<", 25)] == [0]
        # Inclusive boundary touches the next bucket.
        assert [b.index for b in spec.covering("<=", 25)] == [0, 1]
        assert [b.index for b in spec.covering(">", 74.999)] == [2, 3]
        assert [b.index for b in spec.covering("=", 50)] == [2]
        assert spec.covering("<>", 50) is None
        assert spec.covering("=", "c3.large") is None
        assert spec.covering("between", (60, 40)) == []

    def test_edge_buckets_cover_out_of_range_predicates(self):
        spec = BucketSpec("u", 0.0, 100.0, 4)
        assert [b.index for b in spec.covering("<", -10)] == [0]
        assert [b.index for b in spec.covering(">=", 500)] == [3]

    def test_fully_contained_drives_implied_checks(self):
        spec = BucketSpec("u", 0.0, 100.0, 4)
        middle = spec.buckets[1]  # [25, 50)
        assert spec.fully_contained(middle, "between", (25, 50))
        assert spec.fully_contained(middle, "between", (20, 60))
        assert not spec.fully_contained(middle, "between", (30, 60))
        # Edge buckets extend to infinity, so finite predicates never
        # fully contain them.
        assert not spec.fully_contained(spec.buckets[0], "between", (0, 25))
        assert spec.fully_contained(spec.buckets[0], "<", 25)
        assert spec.fully_contained(spec.buckets[3], ">=", 75)


class TestBucketIndex:
    def test_register_and_lookup(self):
        index = BucketIndex()
        spec = index.register(BucketSpec("u", 0.0, 100.0, 4))
        assert index.spec_for("u") == spec
        assert index.spec_for("other") is None
        assert index.attributes() == ["u"]
        assert len(index) == 1

    def test_same_registration_is_idempotent_conflict_raises(self):
        index = BucketIndex()
        index.register(BucketSpec("u", 0.0, 100.0, 4))
        index.register(BucketSpec("u", 0.0, 100.0, 4))  # no-op
        with pytest.raises(ValueError):
            index.register(BucketSpec("u", 0.0, 100.0, 8))


class TestBucketTreeNames:
    def test_tree_name_is_canonical_and_site_unqualified(self):
        bucket = Bucket("CPU_utilization", 12.5, 25.0, index=1,
                        first=False, last=False)
        assert bucket.tree == "CPU_utilization[12.5,25)"
        assert bucket.label == bucket.tree
