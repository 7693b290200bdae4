"""Tests for the Mariposa-style economic layer."""

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.ext.economy import (
    CostAwareCustomer,
    MarketLedger,
    PRICE_ATTRIBUTE,
    cheapest_first,
    choose_cheapest,
    post_priced_resource,
    reprice,
)


@pytest.fixture
def market():
    plane = RBay(RBayConfig(seed=321, nodes_per_site=10, jitter=False)).build()
    plane.sim.run()
    admin = plane.admin("Virginia")
    prices = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
    nodes = plane.site_nodes("Virginia")[: len(prices)]
    for node, price in zip(nodes, prices):
        post_priced_resource(admin, node, "GPU", True, price)
    plane.sim.run()
    return plane, nodes, prices


def make_buyer(plane, wallet, ledger=None, name="buyer"):
    return CostAwareCustomer(
        name, plane.site_nodes("Virginia")[0],
        plane.streams.stream(f"econ-{name}-{wallet}"), wallet=wallet, ledger=ledger,
    )


class TestPricedPosting:
    def test_price_attribute_advertised(self, market):
        plane, nodes, prices = market
        for node, price in zip(nodes, prices):
            assert node.attribute_value(PRICE_ATTRIBUTE) == price

    def test_gate_enforces_budget(self, market):
        plane, nodes, prices = market
        node = nodes[3]  # price 40
        assert node.authorize("joe", {"budget": 45.0}) is not None
        assert node.authorize("joe", {"budget": 35.0}) is None


class TestCostAwareBuying:
    def test_buys_cheapest_k(self, market):
        plane, nodes, prices = market
        ledger = MarketLedger()
        buyer = make_buyer(plane, wallet=100.0, ledger=ledger)
        result = buyer.buy("SELECT 2 FROM Virginia WHERE GPU = true;").result()
        assert result.satisfied
        paid = sorted(e["order_value"] for e in result.entries)
        assert paid == [10.0, 20.0]
        assert buyer.wallet == pytest.approx(70.0)
        assert ledger.revenue_by_site() == {"Virginia": pytest.approx(30.0)}
        assert ledger.volume() == 2

    def test_wallet_limits_purchases(self, market):
        plane, nodes, prices = market
        buyer = make_buyer(plane, wallet=25.0, name="poor")
        result = buyer.buy("SELECT 2 FROM Virginia WHERE GPU = true;").result()
        # 10 + 20 = 30 > 25: cannot afford two nodes.
        assert not result.satisfied
        assert result.entries == ()
        assert buyer.wallet == pytest.approx(25.0)  # nothing charged

    def test_per_node_gate_blocks_expensive_nodes(self, market):
        plane, nodes, prices = market
        # Wallet 35: the 40/50/60 nodes deny at the gate; 10/20/30 pass.
        buyer = make_buyer(plane, wallet=35.0, name="mid")
        result = buyer.buy("SELECT 3 FROM Virginia WHERE GPU = true;").result()
        # 10+20 = 30 <= 35, but adding 30 exceeds the wallet => only 2 kept,
        # so 3 cannot be satisfied.
        assert not result.satisfied

    def test_surplus_reservations_released(self, market):
        plane, nodes, prices = market
        buyer = make_buyer(plane, wallet=1000.0, name="rich")
        result = buyer.buy("SELECT 1 FROM Virginia WHERE GPU = true;").result()
        assert result.satisfied and len(result.entries) == 1
        plane.sim.run()
        held = [n for n in nodes if not n.reservation.is_free()]
        assert len(held) == 1

    def test_sequential_buyers_share_market(self, market):
        plane, nodes, prices = market
        ledger = MarketLedger()
        first = make_buyer(plane, wallet=100.0, ledger=ledger, name="a")
        second = make_buyer(plane, wallet=100.0, ledger=ledger, name="b")
        ra = first.buy("SELECT 2 FROM Virginia WHERE GPU = true;").result()
        plane.sim.run()
        rb = second.buy("SELECT 2 FROM Virginia WHERE GPU = true;").result()
        assert ra.satisfied and rb.satisfied
        taken_a = {e["address"] for e in ra.entries}
        taken_b = {e["address"] for e in rb.entries}
        assert not taken_a & taken_b
        # Second buyer pays more: the cheap nodes are leased out.
        assert second.wallet < first.wallet


class TestCheapestTieBreaking:
    def test_cheapest_first_breaks_price_ties_on_address(self):
        # Regression: the pre-fix sort keyed on price alone, so
        # equal-price candidates kept their site-reply arrival order —
        # which shifts with latency jitter and fan-out interleaving.
        entries = [{"address": a, "order_value": 5.0} for a in (9, 3, 7)]
        assert [e["address"] for e in cheapest_first(entries)] == [3, 7, 9]

    def test_choose_cheapest_is_permutation_invariant(self):
        import itertools

        entries = [
            {"address": 4, "order_value": 5.0},
            {"address": 2, "order_value": 5.0},
            {"address": 8, "order_value": 3.0},
            {"address": 6, "order_value": 5.0},
        ]
        expected = None
        for perm in itertools.permutations(entries):
            kept, surplus, total = choose_cheapest(list(perm), 2, 100.0)
            picked = [e["address"] for e in kept]
            if expected is None:
                expected = picked
            assert picked == expected == [8, 2]
            assert total == pytest.approx(8.0)
            assert sorted(e["address"] for e in surplus) == [4, 6]

    def test_choose_cheapest_respects_wallet(self):
        entries = [{"address": a, "order_value": p}
                   for a, p in ((1, 10.0), (2, 20.0), (3, 30.0))]
        kept, surplus, total = choose_cheapest(entries, None, 35.0)
        assert [e["address"] for e in kept] == [1, 2]
        assert total == pytest.approx(30.0)
        assert [e["address"] for e in surplus] == [3]

    def test_equal_price_market_buys_deterministically(self, market):
        plane, nodes, prices = market
        admin = plane.admin("Virginia")
        # Flatten the market: every node reprices to 10, so price no
        # longer discriminates and only the address tie-break orders it.
        reprice(admin, nodes[0], "GPU", 10.0)
        plane.sim.run()
        expected = sorted(n.address for n in nodes)[:2]
        buyer = make_buyer(plane, wallet=100.0, name="tie")
        result = buyer.buy("SELECT 2 FROM Virginia WHERE GPU = true;").result()
        assert result.satisfied
        assert sorted(e["address"] for e in result.entries) == expected


class TestOveraskSatisfactionFloor:
    def test_thin_market_still_satisfies_wanted(self, market):
        # Regression (phantom purchase): with over-ask, ``wanted=4`` at
        # overask 3.0 inflates the reservation width to k=12 — more than
        # the 6 nodes in the market.  Pre-fix the executor compared the
        # match count against the *inflated* k, settled unsatisfied, and
        # released every reservation — while the shopping callback still
        # kept 4 entries, charged the wallet, and recorded revenue for
        # leases that no longer existed.
        plane, nodes, prices = market
        ledger = MarketLedger()
        buyer = make_buyer(plane, wallet=1000.0, ledger=ledger, name="bulk")
        result = buyer.buy("SELECT 4 FROM Virginia WHERE GPU = true;").result()
        assert result.satisfied and len(result.entries) == 4
        assert buyer.wallet == pytest.approx(1000.0 - (10 + 20 + 30 + 40))
        plane.sim.run()
        # The purchased leases actually exist: 4 committed reservations
        # held by this query, the 2 surplus nodes free again.
        committed = [n for n in nodes if n.reservation.committed]
        assert len(committed) == 4
        assert all(n.reservation.holder() == result.query_id
                   for n in committed)
        assert sum(1 for n in nodes if n.reservation.is_free()) == 2

    def test_wanted_more_than_market_still_fails(self, market):
        plane, nodes, prices = market
        buyer = make_buyer(plane, wallet=1000.0, name="greedy")
        result = buyer.buy("SELECT 7 FROM Virginia WHERE GPU = true;").result()
        assert not result.satisfied and result.entries == ()
        plane.sim.run()
        assert all(n.reservation.is_free() for n in nodes)


class TestCreditGate:
    def test_min_credit_denies_low_history_buyers(self, market):
        plane, nodes, prices = market
        admin = plane.admin("Virginia")
        extra = plane.site_nodes("Virginia")[6]
        post_priced_resource(admin, extra, "CPU", True, 10.0, min_credit=0.5)
        plane.sim.run()
        assert extra.authorize("a", {"budget": 50.0, "credit": 0.8}) is not None
        assert extra.authorize("b", {"budget": 50.0, "credit": 0.2}) is None
        # Credit omitted entirely -> denied (nil fails the gate).
        assert extra.authorize("c", {"budget": 50.0}) is None
        # Budget still enforced alongside credit.
        assert extra.authorize("d", {"budget": 5.0, "credit": 0.9}) is None


class TestRepricing:
    def test_reprice_updates_gate_and_advertisement(self, market):
        plane, nodes, prices = market
        admin = plane.admin("Virginia")
        reprice(admin, nodes[0], "GPU", 5.0)
        plane.sim.run()
        for node in nodes:
            assert node.attribute_value(PRICE_ATTRIBUTE) == 5.0
            assert node.authorize("joe", {"budget": 6.0}) is not None

    def test_cheaper_prices_open_the_market(self, market):
        plane, nodes, prices = market
        buyer = make_buyer(plane, wallet=15.0, name="tiny")
        before = buyer.buy("SELECT 2 FROM Virginia WHERE GPU = true;").result()
        assert not before.satisfied
        plane.sim.run()
        admin = plane.admin("Virginia")
        reprice(admin, nodes[0], "GPU", 5.0)
        plane.sim.run()
        after = buyer.buy("SELECT 2 FROM Virginia WHERE GPU = true;").result()
        assert after.satisfied
        assert buyer.wallet == pytest.approx(5.0)
