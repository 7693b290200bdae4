"""Unit tests for the canned policy handlers (motivating scenarios of §I)."""

import pytest

from repro.aa.runtime import AARuntime
from repro.core.policies import (
    acl_policy,
    credit_policy,
    expiring_share_policy,
    open_policy,
    password_policy,
    rental_price_policy,
    time_window_policy,
)


def gate(source):
    return AARuntime().define("access", 0, source)


class TestOpenPolicy:
    def test_always_exposes(self):
        attribute = gate(open_policy(42))
        assert attribute.invoke("onGet", ("anyone", {})) == 42


class TestPasswordPolicy:
    def test_correct_password(self):
        attribute = gate(password_policy(27, "s3cret"))
        assert attribute.invoke("onGet", ("joe", {"password": "s3cret"})) == 27

    def test_wrong_password(self):
        attribute = gate(password_policy(27, "s3cret"))
        assert attribute.invoke("onGet", ("joe", {"password": "nope"})) is None

    def test_missing_payload(self):
        attribute = gate(password_policy(27, "s3cret"))
        assert attribute.invoke("onGet", ("joe", None)) is None

    def test_password_with_quotes_escaped(self):
        attribute = gate(password_policy(1, 'pa"ss'))
        assert attribute.invoke("onGet", ("joe", {"password": 'pa"ss'})) == 1


class TestTimeWindowPolicy:
    """Grace's policy: resources available only after 10 PM (§I)."""

    def test_inside_window(self):
        attribute = gate(time_window_policy(5, 9, 17))
        assert attribute.invoke("onGet", ("joe", {"hour": 12})) == 5

    def test_outside_window(self):
        attribute = gate(time_window_policy(5, 9, 17))
        assert attribute.invoke("onGet", ("joe", {"hour": 20})) is None

    def test_overnight_window_wraps(self):
        grace = gate(time_window_policy(5, 22, 6))  # 10 PM – 6 AM
        assert grace.invoke("onGet", ("joe", {"hour": 23})) == 5
        assert grace.invoke("onGet", ("joe", {"hour": 3})) == 5
        assert grace.invoke("onGet", ("joe", {"hour": 12})) is None

    def test_boundary_hours(self):
        attribute = gate(time_window_policy(5, 9, 17))
        assert attribute.invoke("onGet", ("joe", {"hour": 9})) == 5
        assert attribute.invoke("onGet", ("joe", {"hour": 17})) is None

    def test_missing_hour_denies(self):
        attribute = gate(time_window_policy(5, 9, 17))
        assert attribute.invoke("onGet", ("joe", {})) is None


class TestAclPolicy:
    """James's policy: an access-control model (§I)."""

    def test_allowed_caller(self):
        attribute = gate(acl_policy(7, ["alice", "bob"]))
        assert attribute.invoke("onGet", ("alice", {})) == 7

    def test_denied_caller(self):
        attribute = gate(acl_policy(7, ["alice"]))
        assert attribute.invoke("onGet", ("mallory", {})) is None

    def test_empty_acl_denies_everyone(self):
        attribute = gate(acl_policy(7, []))
        assert attribute.invoke("onGet", ("alice", {})) is None


class TestCreditPolicy:
    """Kevin's policy: good history logs required (§I)."""

    def test_sufficient_credit(self):
        attribute = gate(credit_policy(9, 0.8))
        assert attribute.invoke("onGet", ("joe", {"credit": 0.9})) == 9

    def test_insufficient_credit(self):
        attribute = gate(credit_policy(9, 0.8))
        assert attribute.invoke("onGet", ("joe", {"credit": 0.5})) is None

    def test_exact_threshold_passes(self):
        attribute = gate(credit_policy(9, 0.8))
        assert attribute.invoke("onGet", ("joe", {"credit": 0.8})) == 9

    def test_missing_credit_denies(self):
        attribute = gate(credit_policy(9, 0.8))
        assert attribute.invoke("onGet", ("joe", {})) is None


class TestRentalPricePolicy:
    def test_budget_meets_price(self):
        attribute = gate(rental_price_policy(3, 10.0))
        assert attribute.invoke("onGet", ("joe", {"budget": 15.0})) == 3
        assert attribute.invoke("onGet", ("joe", {"budget": 5.0})) is None

    def test_price_change_via_deliver(self):
        attribute = gate(rental_price_policy(3, 10.0))
        attribute.invoke("onDeliver", ("admin", {"new_price": 4.0}))
        assert attribute.invoke("onGet", ("joe", {"budget": 5.0})) == 3


class TestExpiringSharePolicy:
    def test_before_deadline(self):
        attribute = gate(expiring_share_policy(2, 1000.0))
        assert attribute.invoke("onGet", ("joe", {"now": 500.0})) == 2

    def test_after_deadline(self):
        attribute = gate(expiring_share_policy(2, 1000.0))
        assert attribute.invoke("onGet", ("joe", {"now": 1500.0})) is None

    def test_extension_via_deliver(self):
        attribute = gate(expiring_share_policy(2, 1000.0))
        attribute.invoke("onDeliver", ("admin", {"new_expiration": 9000.0}))
        assert attribute.invoke("onGet", ("joe", {"now": 1500.0})) == 2


class TestPolicyHygiene:
    def test_no_policy_leaks_handler_errors(self):
        for source in (
            open_policy(1),
            password_policy(1, "x"),
            time_window_policy(1, 0, 24),
            acl_policy(1, ["a"]),
            credit_policy(1, 0.5),
            rental_price_policy(1, 1.0),
            expiring_share_policy(1, 1.0),
        ):
            attribute = gate(source)
            attribute.invoke("onGet", ("x", {"password": "p", "hour": 1,
                                             "credit": 1.0, "budget": 1.0,
                                             "now": 0.0}))
            assert attribute.errors == [], source
