"""A Mariposa-style economic layer over RBAY (related work, §V-C).

"Mariposa is a federated database system which uses an economic paradigm
to integrate the data sources into a computational economy" — and RBAY's
own marketplace framing ("raise or lower rental prices") invites the same
treatment.  This module adds:

* price schedules per node, enforced on the owner's side by the standard
  ``rental_price_policy`` gate (the plane never sees secrets or budgets);
* a **cost-aware customer** that over-asks, then solves the cheapest-k
  selection under its budget, releasing everything it does not take;
* simple market accounting (spend per customer, revenue per site).
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.admin import SiteAdmin
from repro.core.client import Customer
from repro.core.node import RBayNode
from repro.core.policies import market_gate_policy, rental_price_policy
from repro.query.options import QueryOptions
from repro.query.sql import parse_query
from repro.sim.futures import Future

#: Attribute under which a node's asking price is published (plain data —
#: the *enforcement* happens in the gate handler, not in this attribute).
PRICE_ATTRIBUTE = "asking_price"

#: onDeliver handler keeping the advertised price in sync with admin
#: repricing multicasts.
_PRICE_SOURCE = """
function onDeliver(caller, payload)
  if payload ~= nil and payload.new_price ~= nil then
    AA.Value = payload.new_price
  end
  return AA.Value
end
"""


def post_priced_resource(
    admin: SiteAdmin,
    node: RBayNode,
    attribute: str,
    value: Any,
    price: float,
    min_credit: Optional[float] = None,
) -> None:
    """Post a resource with a price: gate enforces budget >= price, and the
    advertised price is queryable/sortable via ``asking_price``.

    With ``min_credit`` set, the gate is the combined price/credit policy:
    callers must also present ``payload.credit >= min_credit`` (Kevin's
    history check composed with the rental price, §I).
    """
    if min_credit is None:
        gate = rental_price_policy(node.node_id.value, price)
    else:
        gate = market_gate_policy(node.node_id.value, price, min_credit)
    admin.set_gate_policy(node, gate)
    node.define_attribute(PRICE_ATTRIBUTE, float(price), _PRICE_SOURCE)
    admin.post_resource(node, attribute, value)


def reprice(admin: SiteAdmin, via: RBayNode, tree: str, new_price: float) -> None:
    """Admin-side interactive price change: multicast onDeliver down the
    tree plus the advertised-price attribute update on delivery."""
    admin.broadcast_command(via, tree, "access", {"new_price": new_price})
    # Advertised price follows the enforced price on the same multicast.
    admin.broadcast_command(via, tree, PRICE_ATTRIBUTE, {"new_price": new_price})


def cheapest_first(entries: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Deterministic shopping order: advertised price, then address.

    The executor's GROUPBY sort is stable on ``order_value`` alone, so
    equal-price candidates arrive in site-reply order — which shifts with
    latency jitter and fan-out interleaving.  Breaking price ties on the
    node address makes same-seed market runs byte-identical regardless of
    arrival order.
    """
    return sorted(entries, key=lambda e: (float(e.get("order_value") or 0.0),
                                          e["address"]))


def choose_cheapest(
    entries: List[Dict[str, Any]],
    wanted: Optional[int],
    wallet: float,
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]], float]:
    """Pure cheapest-k selection under a total budget.

    Returns ``(kept, surplus, total_price)``.  Entries are considered in
    :func:`cheapest_first` order, so the result is identical for every
    permutation of ``entries`` — the property the determinism tests pin.
    """
    kept: List[Dict[str, Any]] = []
    surplus: List[Dict[str, Any]] = []
    total = 0.0
    for entry in cheapest_first(entries):
        price = float(entry.get("order_value") or 0.0)
        if (wanted is None or len(kept) < wanted) and total + price <= wallet:
            kept.append(entry)
            total += price
        else:
            surplus.append(entry)
    return kept, surplus, total


class MarketLedger:
    """Records completed purchases for market-level reporting."""

    def __init__(self):
        self.purchases: List[Tuple[str, str, int, float]] = []

    def record(self, customer: str, site: str, node_address: int, price: float) -> None:
        self.purchases.append((customer, site, node_address, price))

    def spend_of(self, customer: str) -> float:
        return sum(p for c, _, _, p in self.purchases if c == customer)

    def revenue_of(self, site: str) -> float:
        return sum(p for _, s, _, p in self.purchases if s == site)

    def volume(self) -> int:
        return len(self.purchases)

    def revenue_by_site(self) -> Dict[str, float]:
        """``site -> total revenue`` over every recorded purchase."""
        out: Dict[str, float] = {}
        for _, site, _, price in self.purchases:
            out[site] = out.get(site, 0.0) + price
        return out


class CostAwareCustomer(Customer):
    """Buys the cheapest k nodes that fit inside a total budget.

    The per-node gate still enforces ``budget >= price`` on the owner's
    side; this class adds client-side shopping: over-ask, sort by advertised
    price, keep the cheapest k whose sum fits the wallet, release the rest.
    """

    def __init__(
        self,
        name: str,
        home: RBayNode,
        rng: random.Random,
        wallet: float,
        ledger: Optional[MarketLedger] = None,
        overask: float = 3.0,
        credit: Optional[float] = None,
        **kwargs: Any,
    ):
        super().__init__(name, home, rng, **kwargs)
        self.wallet = wallet
        self.ledger = ledger
        self.overask = overask
        #: History score presented to credit-checking gates
        #: (:func:`repro.core.policies.market_gate_policy`); ``None``
        #: omits the field, which those gates treat as a denial.
        self.credit = credit

    def buy(
        self,
        sql: str,
        timeout: Optional[float] = None,
    ) -> Future:
        """Run a purchase; resolves to a QueryResult holding the kept nodes.

        The query's GROUPBY is forced to ``asking_price ASC`` so entries
        come back priced, and the per-node payload carries the *per-node*
        budget ceiling (the wallet — owners only check affordability).
        """
        query = parse_query(sql)
        wanted = query.k
        if wanted is not None:
            query.k = max(wanted, int(wanted * self.overask))
            # Without the floor, a market with fewer matches than the
            # *inflated* k settles unsatisfied and the executor releases
            # every reservation — while the shopping callback still
            # "kept" entries, charged the wallet, and recorded revenue
            # for leases that no longer existed (a phantom purchase).
            query.min_k = wanted
        query.order_by = PRICE_ATTRIBUTE
        query.descending = False
        payload: Dict[str, Any] = {"budget": self.wallet}
        if self.credit is not None:
            payload["credit"] = self.credit
        future = self._query_app.execute(self.home, query, QueryOptions(
            payload=payload, caller=self.name, deadline_ms=timeout))
        done = Future(self.home.sim, timeout=timeout)

        def _shop(result: Any) -> None:
            if isinstance(result, Exception):
                done.try_resolve(result)
                return
            kept, surplus, total = choose_cheapest(
                list(result.entries), wanted, self.wallet)
            for entry in surplus:
                self.home.send_app(entry["address"], "query", "release",
                                   {"query_id": result.query_id})
            satisfied = wanted is None or len(kept) >= wanted
            if satisfied:
                self.wallet -= total
                if self.ledger is not None:
                    for entry in kept:
                        self.ledger.record(self.name, entry["site"],
                                           entry["address"],
                                           float(entry.get("order_value") or 0.0))
            else:
                # Could not afford / fill: release the kept ones too.
                for entry in kept:
                    self.home.send_app(entry["address"], "query", "release",
                                       {"query_id": result.query_id})
                kept = []
            done.try_resolve(replace(result, entries=tuple(kept),
                                     requested=wanted, satisfied=satisfied))

        future.add_callback(_shop)
        return done


class SpotPricer:
    """Per-site dynamic repricing driven by the labeled metrics plane.

    Each site runs its own pricer — no coordinator, mirroring the DEPAS
    scaling rule.  On every :meth:`tick` it reads the site's own
    ``market.site.utilization`` gauge (written by the site's autoscaler
    or workload accounting), nudges the asking price multiplicatively —
    up when hot, down when idle — clamps it to ``[floor, ceiling]``, and
    broadcasts the change with :func:`reprice` so the enforcement gates
    and the advertised ``asking_price`` move together on one multicast.
    """

    def __init__(
        self,
        admin: SiteAdmin,
        via: RBayNode,
        tree: str,
        metrics: Any,
        price: float,
        floor: float = 1.0,
        ceiling: float = 64.0,
        gain: float = 0.25,
        high: float = 0.75,
        low: float = 0.25,
    ):
        if floor <= 0 or ceiling < floor:
            raise ValueError("need 0 < floor <= ceiling")
        if not 0.0 <= low < high <= 1.0:
            raise ValueError("need 0 <= low < high <= 1")
        self.admin = admin
        self.via = via
        self.tree = tree
        self.metrics = metrics
        self.price = float(price)
        self.floor = float(floor)
        self.ceiling = float(ceiling)
        self.gain = float(gain)
        self.high = float(high)
        self.low = float(low)
        #: Repricing multicasts issued (diagnostics).
        self.changes = 0

    def tick(self) -> float:
        """One pricing decision; returns the (possibly new) spot price."""
        site = self.admin.site.name
        util = self.metrics.gauge("market.site.utilization").get(site=site)
        if util >= self.high:
            target = min(self.ceiling, self.price * (1.0 + self.gain))
        elif util <= self.low:
            target = max(self.floor, self.price * (1.0 - self.gain))
        else:
            target = self.price
        if target != self.price:
            self.price = target
            self.changes += 1
            reprice(self.admin, self.via, self.tree, target)
        self.metrics.gauge("market.site.price").set(self.price, site=site)
        return self.price
