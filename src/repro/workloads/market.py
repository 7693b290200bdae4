"""Elastic federation marketplace at million-user scale.

The last ROADMAP north-star item: RBAY's own marketplace framing ("raise
or lower rental prices") composed with Ranjan & Buyya's market-based
federation and DEPAS's decentralized auto-scaling (PAPERS.md).  The
driver behind ``benchmarks/test_market.py`` and the ``rbay market`` CLI
subcommand:

* an **open-loop, heavy-tailed arrival process** — Poisson arrivals
  (with a configurable demand-spike window) drawn from a zipf-weighted
  population of up to millions of synthetic users, compressed through
  the DES core; only users that actually arrive materialize
  state, so the population costs memory proportional to the *active*
  head, not the census;
* **per-site price/credit AA gates** — every posted instance carries the
  combined :func:`~repro.core.policies.market_gate_policy`
  (``budget >= Price`` and ``credit >= MinCredit``, enforced owner-side
  in the sandbox), with dynamic repricing by one
  :class:`~repro.ext.economy.SpotPricer` per site reading the labeled
  metrics plane;
* **DEPAS auto-scaling** — one :class:`~repro.ext.autoscale.SiteAutoscaler`
  per site adds/retires priced postings from its own observed
  utilization, probabilistically, with no coordinator;
* **fairness/starvation accounting** — per-customer satisfied demand,
  Jain's index over per-user fill ratios, starvation age percentiles,
  and per-origin-site admission-queue waits through the existing
  :class:`~repro.query.admission.AdmissionController` window.

Everything is driven by the plane's named RNG streams, so a spec + seed
fully determines the run: the returned metrics carry a sha256
``signature`` over every arrival outcome and the end-of-run market
state, which the 20-seed determinism suite replays.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_left
from dataclasses import asdict, dataclass
from itertools import accumulate
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.core.naming import predicate_tree_name
from repro.core.plane import RBay, RBayConfig
from repro.ext.autoscale import AutoscaleConfig, SiteAutoscaler
from repro.ext.economy import CostAwareCustomer, MarketLedger, SpotPricer
from repro.obs.metrics import jain_fairness, mean, percentile
from repro.query.result import QueryResult

#: Attribute every posted instance advertises (the market's equality tree).
MARKET_ATTRIBUTE = "instance_ready"

#: The per-site market tree name (queries and repricing multicasts share it).
MARKET_TREE = predicate_tree_name(MARKET_ATTRIBUTE, "=", True)

#: Autoscaler evaluation period per site (ms).
SCALE_INTERVAL_MS = 500.0
#: Repricing evaluation period per site (ms).
REPRICE_INTERVAL_MS = 1_000.0
#: Per-request budget presented to the gates (the wallet is re-funded each
#: arrival: budgets are per-purchase, not cumulative).
REQUEST_BUDGET = 60.0

#: Memoized zipf cumulative weights per (population, exponent): building
#: the table is O(population) and the 20-seed sweeps reuse it.
_ZIPF_CUM: Dict[Tuple[int, float], array] = {}


def zipf_cumulative(count: int, s: float) -> array:
    """Cumulative (unnormalized) zipf weights for ranks 1..count, as packed
    doubles: the same values a list of floats holds (``bisect_left`` draws
    identically) in 8 bytes each instead of a 24-byte float object plus
    an 8-byte slot."""
    key = (count, s)
    table = _ZIPF_CUM.get(key)
    if table is None:
        table = array("d", accumulate(1.0 / (rank ** s)
                                      for rank in range(1, count + 1)))
        _ZIPF_CUM[key] = table
    return table


def user_credit(uid: int) -> float:
    """Deterministic per-user history score in [0, 1] (Knuth hash).

    A pure function of the user id — no RNG stream is consumed, so the
    credit of user *n* never depends on who arrived before them.
    """
    return ((uid + 1) * 2654435761 % 1000) / 999.0


@dataclass(frozen=True)
class MarketSpec:
    """Parameters for one marketplace arm.

    The defaults describe the benchmark configuration: 4 sites x 10
    nodes, a million-user zipf population, and a 4x demand spike in the
    middle of the window.
    """

    sites: int = 4
    nodes_per_site: int = 10
    seed: int = 2017
    #: Synthetic customer population sampled by zipf rank (rank 1 = the
    #: heaviest user).  Only users that arrive materialize any state.
    users: int = 1_048_576
    #: Open-loop base arrival rate (arrivals per simulated second).
    arrival_rate_per_s: float = 30.0
    #: Demand-spike window start (ms into the measured window) ...
    spike_start_ms: float = 2_000.0
    #: ... its length (ms) ...
    spike_ms: float = 2_500.0
    #: ... and the arrival-rate multiplier inside it.
    spike_multiplier: float = 4.0
    #: Instances each site posts before the window opens.
    initial_instances: ClassVar[int] = 2
    #: Measured window of simulated time (ms).
    duration_ms: float = 7_000.0
    #: DEPAS auto-scaling on (the elastic arm) or off (fixed capacity).
    autoscale: bool = True
    #: Spot repricing on or off.
    reprice: bool = True
    #: Attach the runtime invariant sanitizer; the metrics dict gains a
    #: ``"sanitizer"`` entry.  The ``signature`` is sealed before the
    #: sanitizer's quiescent drain, so it is identical on or off.
    sanitize: bool = False
    sanitize_sweep_events: int = 50_000
    #: Optional :class:`repro.faults.FaultSchedule` for chaos-market runs.
    fault_schedule: Optional[Any] = None

    @property
    def total_nodes(self) -> int:
        return self.sites * self.nodes_per_site


def _build_plane(spec: MarketSpec) -> RBay:
    return RBay(RBayConfig(
        seed=spec.seed,
        nodes_per_site=spec.nodes_per_site,
        synthetic_sites=spec.sites,
        jitter=False,
        lease_ms=1_500.0,  # short leases: capacity recycles
        reservation_hold_ms=800.0,
        query_window=24,
        sanitize=spec.sanitize,
        sanitize_sweep_events=spec.sanitize_sweep_events,
        fault_schedule=spec.fault_schedule,
    )).build()


def run_market(spec: Optional[MarketSpec] = None) -> Dict[str, Any]:
    """Run one marketplace arm; returns a JSON-serializable metrics dict.

    The dict carries satisfied demand (global and per arrival), revenue /
    final price / final instance count per site, Jain's fairness index
    over per-user fill ratios, starvation-age percentiles, per-site
    admission waits, the DEPAS actuation counts, and the determinism
    ``signature``.
    """
    spec = spec if spec is not None else MarketSpec()
    plane = _build_plane(spec)
    sim = plane.sim
    ledger = MarketLedger()
    site_names = [site.name for site in plane.registry]

    # ------------------------------------------------------------------
    # Per-site market machinery: pricer + DEPAS autoscaler.  Node 0 of
    # each site stays un-posted — it is the site's query interface (and
    # the multicast `via`), so elasticity never retires the coordinator.
    pricers: Dict[str, SpotPricer] = {}
    scalers: Dict[str, SiteAutoscaler] = {}
    autoscale_config = AutoscaleConfig()
    for name in site_names:
        nodes = plane.site_nodes(name)
        gateway, pool = nodes[0], nodes[1:]
        pricer = SpotPricer(
            plane.admin(name), gateway, MARKET_TREE, plane.obs.metrics,
            price=4.0,  # the asking price; permanent with repricing off
        )
        scaler = SiteAutoscaler(
            plane.admin(name), pool,
            autoscale_config,
            rng=plane.streams.stream(f"market-scale-{name}"),
            metrics=plane.obs.metrics,
            attribute=MARKET_ATTRIBUTE,
            value=True,
            price_of=lambda p=pricer: p.price,
            min_credit=0.05,  # users whose user_credit falls below are denied
            enabled=spec.autoscale,
        )
        scaler.start(spec.initial_instances)
        pricers[name] = pricer
        scalers[name] = scaler
    plane.sim.run()
    plane.start_maintenance()
    plane.settle(800.0)

    window_start = sim.now
    window_end = window_start + spec.duration_ms

    # ------------------------------------------------------------------
    # Control loops: one deterministic sweep over sites per tick.
    def scale_tick() -> None:
        for name in site_names:
            scalers[name].tick()
        if sim.now + SCALE_INTERVAL_MS <= window_end:
            sim.schedule(SCALE_INTERVAL_MS, scale_tick)

    def price_tick() -> None:
        if spec.reprice:
            for name in site_names:
                pricers[name].tick()
        if sim.now + REPRICE_INTERVAL_MS <= window_end:
            sim.schedule(REPRICE_INTERVAL_MS, price_tick)

    # ------------------------------------------------------------------
    # Open-loop heavy-tailed arrivals.
    arr_rng = plane.streams.stream("market-arrivals")
    cust_rng = plane.streams.stream("market-customers")
    zipf_cum = zipf_cumulative(spec.users, 1.1)  # zipf s over user popularity
    zipf_total = zipf_cum[-1]

    class _User:
        __slots__ = ("customer", "demanded", "got", "spend", "arrivals",
                     "first_ask_ms", "last_got_ms")

        def __init__(self, customer: CostAwareCustomer, now: float):
            self.customer = customer
            self.demanded = 0
            self.got = 0
            self.spend = 0.0
            self.arrivals = 0
            self.first_ask_ms = now
            self.last_got_ms: Optional[float] = None

    users: Dict[int, _User] = {}
    records: List[Tuple[Any, ...]] = []
    outstanding = [0]
    arrival_seq = [0]

    def _user_for(uid: int) -> _User:
        user = users.get(uid)
        if user is None:
            origin = site_names[uid % len(site_names)]
            customer = CostAwareCustomer(
                f"u{uid}", plane.site_nodes(origin)[0], cust_rng,
                wallet=0.0, ledger=ledger, overask=2.0,
                credit=user_credit(uid))
            user = _User(customer, sim.now)
            users[uid] = user
        return user

    def fire_arrival() -> None:
        seq = arrival_seq[0]
        arrival_seq[0] += 1
        uid = bisect_left(zipf_cum, arr_rng.random() * zipf_total)
        # Units per request: 1 + a pareto tail clamped at 4.
        wanted = 1 + min(3, int(arr_rng.paretovariate(1.4)) - 1)
        user = _user_for(uid)
        user.arrivals += 1
        user.demanded += wanted
        user.customer.wallet = REQUEST_BUDGET
        origin = user.customer.home.site.name
        sql = f"SELECT {wanted} FROM * WHERE {MARKET_ATTRIBUTE} = true;"
        outstanding[0] += 1

        def finish(value: Any, seq=seq, uid=uid, wanted=wanted,
                   user=user, origin=origin) -> None:
            outstanding[0] -= 1
            if isinstance(value, Exception):
                records.append((seq, uid, origin, wanted, 0, 0.0,
                                type(value).__name__))
                return
            got = len(value.entries) if isinstance(value, QueryResult) else 0
            paid = REQUEST_BUDGET - user.customer.wallet
            user.got += got
            user.spend += paid
            if got:
                user.last_got_ms = sim.now
            records.append((seq, uid, origin, wanted, got, round(paid, 6),
                            None))

        plane.admission.submit(
            lambda u=user, s=sql: u.customer.buy(s), label=origin,
        ).add_callback(finish)
        schedule_next()

    def schedule_next() -> None:
        offset = sim.now - window_start
        in_spike = (spec.spike_start_ms <= offset
                    < spec.spike_start_ms + spec.spike_ms)
        rate = spec.arrival_rate_per_s * (spec.spike_multiplier
                                          if in_spike else 1.0)
        gap_ms = arr_rng.expovariate(rate) * 1_000.0
        if sim.now + gap_ms <= window_end:
            sim.schedule(gap_ms, fire_arrival)

    # ------------------------------------------------------------------
    # Measured window.
    sim.schedule(0.0, scale_tick)
    sim.schedule(REPRICE_INTERVAL_MS / 2.0, price_tick)
    schedule_next()
    sim.run(until=window_end)
    guard = window_end + 15_000.0  # drain budget for in-flight buys
    while outstanding[0] > 0 and sim.now < guard:
        sim.run(until=min(sim.now + 500.0, guard))
    plane.stop_maintenance()

    # ------------------------------------------------------------------
    # Fairness / starvation accounting.
    end = sim.now
    ratios = [user.got / user.demanded for user in users.values()
              if user.demanded > 0]
    starvation = []
    for user in users.values():
        anchor = (user.last_got_ms if user.last_got_ms is not None
                  else user.first_ask_ms)
        starvation.append(end - anchor)
    total_demanded = sum(u.demanded for u in users.values())
    total_got = sum(u.got for u in users.values())
    fills = sum(1 for r in records if r[6] is None and r[4] >= r[3])
    errors = sum(1 for r in records if r[6] is not None)

    revenue = {name: 0.0 for name in site_names}
    revenue.update(ledger.revenue_by_site())

    digest = hashlib.sha256()
    for rec in sorted(records):
        digest.update(repr(rec).encode())
    for name in site_names:
        digest.update(repr((name, round(pricers[name].price, 6),
                            scalers[name].instances,
                            round(revenue[name], 6))).encode())
    signature = digest.hexdigest()

    sanitized: Dict[str, Any] = {}
    if plane.sanitizer is not None:
        sim.run()  # quiescent drain fires the strict invariant checks
        sanitized["sanitizer"] = plane.sanitizer.report.to_dict()

    def _pcts(values: List[float]) -> Dict[str, float]:
        if not values:
            return {"p50": 0.0, "p95": 0.0, "max": 0.0, "mean": 0.0}
        return {"p50": percentile(values, 50), "p95": percentile(values, 95),
                "max": max(values), "mean": mean(values)}

    return {
        "spec": {k: v for k, v in asdict(spec).items()
                 if k != "fault_schedule"},
        "autoscale": spec.autoscale,
        "reprice": spec.reprice,
        "arrivals": len(records),
        "arrivals_filled": fills,
        "arrival_errors": errors,
        "distinct_users": len(users),
        "units_demanded": total_demanded,
        "units_granted": total_got,
        "satisfied_demand": (total_got / total_demanded
                             if total_demanded else 0.0),
        "jain_fairness": jain_fairness(ratios) if ratios else 1.0,
        "starvation_age_ms": _pcts(starvation),
        "revenue_per_site": {k: round(v, 6) for k, v in revenue.items()},
        "revenue_total": round(sum(revenue.values()), 6),
        "final_price_per_site": {name: round(pricers[name].price, 6)
                                 for name in site_names},
        "final_instances_per_site": {name: scalers[name].instances
                                     for name in site_names},
        "scale_out_events": sum(s.scaled_out for s in scalers.values()),
        "scale_in_events": sum(s.scaled_in for s in scalers.values()),
        "reprice_events": sum(p.changes for p in pricers.values()),
        "purchases": ledger.volume(),
        "admission": {
            "admitted": plane.admission.admitted,
            "max_queued": plane.admission.max_queued,
            "waits": plane.admission.wait_stats(),
        },
        "signature": signature,
        **sanitized,
    }
