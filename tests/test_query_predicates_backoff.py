"""Unit tests for predicates and backoff."""

import random

import pytest

from repro.query.backoff import TruncatedExponentialBackoff
from repro.query.predicates import Predicate, evaluate


class TestEvaluate:
    def test_numeric_equality_across_int_float(self):
        assert evaluate(5, "=", 5.0)
        assert not evaluate(5, "=", 6)

    def test_string_equality(self):
        assert evaluate("abc", "=", "abc")
        assert not evaluate("abc", "=", "abd")

    def test_bool_equality_is_identity(self):
        assert evaluate(True, "=", True)
        assert not evaluate(True, "=", 1)
        assert not evaluate(1, "=", True)

    def test_inequality(self):
        assert evaluate(1, "<>", 2)
        assert not evaluate(1, "<>", 1)

    def test_ordering_numeric(self):
        assert evaluate(3, "<", 5)
        assert evaluate(5, "<=", 5)
        assert evaluate(7, ">", 5)
        assert evaluate(5, ">=", 5)

    def test_ordering_strings(self):
        assert evaluate("a", "<", "b")

    def test_mixed_types_never_match_ordering(self):
        assert not evaluate("5", "<", 6)
        assert not evaluate(None, "<", 6)
        assert not evaluate(True, "<", 6)

    def test_unknown_operator_raises(self):
        with pytest.raises(ValueError):
            evaluate(1, "~", 1)


class TestPredicate:
    def test_matches(self):
        assert Predicate("cpu", "<", 10).matches(5)
        assert not Predicate("cpu", "<", 10).matches(15)

    def test_invalid_operator_rejected(self):
        with pytest.raises(ValueError):
            Predicate("a", "LIKE", "x")

    def test_pack_unpack_round_trip(self):
        original = Predicate("a", ">=", 3.5)
        assert Predicate.unpack(original.pack()) == original

    def test_str(self):
        assert "cpu" in str(Predicate("cpu", "<", 10))


class TestBackoff:
    def test_delay_within_truncated_window(self):
        backoff = TruncatedExponentialBackoff(random.Random(0), slot_ms=100.0,
                                              max_exponent=4)
        for failures in range(1, 10):
            backoff.failures = failures
            for _ in range(50):
                delay = backoff.next_delay_ms()
                exponent = min(failures, 4)
                assert 0 <= delay <= ((1 << exponent) - 1) * 100.0

    def test_expected_delay_grows_with_failures(self):
        rng = random.Random(1)
        backoff = TruncatedExponentialBackoff(rng, slot_ms=1.0, max_exponent=10)

        def mean_delay(failures, samples=400):
            backoff.failures = failures
            return sum(backoff.next_delay_ms() for _ in range(samples)) / samples

        assert mean_delay(6) > mean_delay(2) > mean_delay(1) * 0.8

    def test_exhaustion(self):
        backoff = TruncatedExponentialBackoff(random.Random(0), max_attempts=3)
        assert not backoff.exhausted()
        for _ in range(3):
            backoff.record_failure()
        assert backoff.exhausted()

    def test_reset(self):
        backoff = TruncatedExponentialBackoff(random.Random(0))
        backoff.record_failure()
        backoff.reset()
        assert backoff.failures == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TruncatedExponentialBackoff(random.Random(0), slot_ms=0)
        with pytest.raises(ValueError):
            TruncatedExponentialBackoff(random.Random(0), max_exponent=0)

    def test_first_failure_uses_exponent_one(self):
        backoff = TruncatedExponentialBackoff(random.Random(7), slot_ms=10.0)
        backoff.record_failure()
        delays = {backoff.next_delay_ms() for _ in range(100)}
        assert delays <= {0.0, 10.0}

    def test_zero_failures_means_zero_delay(self):
        """The first attempt must not pay a backoff tax."""
        backoff = TruncatedExponentialBackoff(random.Random(3), slot_ms=50.0)
        assert all(backoff.next_delay_ms() == 0.0 for _ in range(50))
        backoff.record_failure()
        backoff.reset()
        assert backoff.next_delay_ms() == 0.0
