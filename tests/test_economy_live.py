"""Live-mode economy coverage: priced gates + repricing on real sockets.

The sim-side economy tests (tests/test_ext_economy.py) exercise
post/buy/reprice on the DES backend; this module drives the same surface
over the asyncio transport with a compressed clock — AA gate payloads
(budget + credit), priced GROUPBY replies, surplus release fan-out, and
the admin repricing multicast all cross the wire.
"""

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.ext.economy import (
    CostAwareCustomer,
    MarketLedger,
    PRICE_ATTRIBUTE,
    post_priced_resource,
    reprice,
)

SEED = 2017
PRICES = [10.0, 20.0, 30.0, 40.0]


@pytest.fixture(scope="module")
def live_market():
    plane = RBay(RBayConfig(
        seed=SEED,
        synthetic_sites=2,
        nodes_per_site=3,
        jitter=False,
        transport="asyncio",
        time_scale=0.02,
        connect_retries=1,
    )).build()
    try:
        nodes = (plane.site_nodes("Site000")[1:]
                 + plane.site_nodes("Site001")[1:])
        for node, price in zip(nodes, PRICES):
            post_priced_resource(plane.admin(node.site.name), node,
                                 "GPU", True, price, min_credit=0.5)
        plane.sim.run()
        yield plane, nodes
    finally:
        plane.close()


def make_buyer(plane, wallet, name, credit=0.9, ledger=None):
    return CostAwareCustomer(
        name, plane.site_nodes("Site000")[0],
        plane.streams.stream(f"live-{name}"),
        wallet=wallet, ledger=ledger, overask=2.0, credit=credit)


def test_live_priced_gates_enforce_budget_and_credit(live_market):
    plane, nodes = live_market
    node = nodes[1]  # price 20
    assert node.attribute_value(PRICE_ATTRIBUTE) == 20.0
    assert node.authorize("a", {"budget": 25.0, "credit": 0.9}) is not None
    assert node.authorize("b", {"budget": 15.0, "credit": 0.9}) is None
    assert node.authorize("c", {"budget": 25.0, "credit": 0.1}) is None


def test_live_buy_keeps_cheapest_and_releases_surplus(live_market):
    plane, nodes = live_market
    ledger = MarketLedger()
    buyer = make_buyer(plane, wallet=100.0, name="buyer", ledger=ledger)
    result = buyer.buy("SELECT 2 FROM * WHERE GPU = true;").result()
    assert result.satisfied
    assert sorted(e["order_value"] for e in result.entries) == [10.0, 20.0]
    assert buyer.wallet == pytest.approx(70.0)
    assert ledger.volume() == 2
    plane.sim.run()
    held = [n for n in nodes if not n.reservation.is_free()]
    assert len(held) == 2  # the surplus over-ask reservations went back
    assert all(n.reservation.committed for n in held)
    for node in nodes:
        node.reservation.release(result.query_id)


def test_live_low_credit_buyer_is_denied_everywhere(live_market):
    plane, nodes = live_market
    buyer = make_buyer(plane, wallet=100.0, name="lowcred", credit=0.2)
    result = buyer.buy("SELECT 1 FROM * WHERE GPU = true;").result()
    assert not result.satisfied and result.entries == ()
    assert buyer.wallet == pytest.approx(100.0)


def test_live_reprice_multicast_reopens_market(live_market):
    plane, nodes = live_market
    buyer = make_buyer(plane, wallet=12.0, name="tiny")
    before = buyer.buy("SELECT 2 FROM * WHERE GPU = true;").result()
    assert not before.satisfied
    plane.sim.run()
    for site in ("Site000", "Site001"):
        reprice(plane.admin(site), plane.site_nodes(site)[0], "GPU", 5.0)
    plane.sim.run()
    for node in nodes:
        assert node.attribute_value(PRICE_ATTRIBUTE) == 5.0
    after = buyer.buy("SELECT 2 FROM * WHERE GPU = true;").result()
    assert after.satisfied
    assert buyer.wallet == pytest.approx(2.0)
