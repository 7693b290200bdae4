"""The four pinned workloads (README.md says why each was chosen).

Every ``run_*`` function builds a fresh plane from the seed, replays one
fixed schedule in timed slices, checks the outputs, and returns a
:class:`~harness.Rep`.  The drivers reach the system only through the
frozen facade and the pure generators; they never call ``run_scale`` or
``run_market``, so editing ``src/repro/workloads/`` cannot change the
measured traffic without changing the pinned signatures.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro import QueryOptions, RBay, RBayConfig
from repro.core.naming import predicate_tree_name, site_tree
from repro.ext.autoscale import AutoscaleConfig, SiteAutoscaler
from repro.ext.economy import CostAwareCustomer, MarketLedger, SpotPricer
from repro.workloads.ec2 import EC2_INSTANCE_TYPES, gaussian_tree_weights
from repro.workloads.generator import FederationWorkload, WorkloadSpec
from repro.workloads.market import user_credit, zipf_cumulative
from repro.workloads.queries import composite_query
from repro.workloads.skewed import SkewedSpec, range_query_mix

import checks
from harness import Rep, SliceClock, percentile
from layers import NullTracer

#: Every plane is built from this seed: the federation (node ids, site
#: placement, instance types, utilizations, jitter streams) is the fixed
#: testbed, as the paper's EC2 deployment was.  ``--seed`` drives the
#: *inputs* — queries, published values, arrivals — through the drivers'
#: own streams, so a metric's spread over seeds is the spread of the
#: offered load, not of the topology.
PLANE_SEED = 2017
PASSWORD = "rbay"
LOAD_TREE = "load"
AGGREGATES = ("sum", "max", "min")
MARKET_ATTRIBUTE = "instance_ready"
MARKET_TREE = predicate_tree_name(MARKET_ATTRIBUTE, "=", True)

#: Untraced repetitions; the traced pass hands in a ``layers.Tracer``,
#: which also wraps the drivers' own callbacks so that the time the
#: benchmark spends generating load is not booked to ``sim``.
_UNTRACED = NullTracer()


def _rng(seed: int, stream: str) -> random.Random:
    """A driver-owned stream: the plane's own streams stay untouched."""
    return random.Random(f"bench:{seed}:{stream}")


def _balanced(rng: random.Random, items: List[str], count: int) -> List[str]:
    """``count`` draws in seeded order with every item equally often (±1):
    a seed changes who asks when, not how much each one asks."""
    out = (items * -(-count // len(items)))[:count]
    rng.shuffle(out)
    return out


def _instance_types(rng: random.Random, count: int) -> List[str]:
    """``count`` instance types in the dressing's Gaussian popularity
    proportions (systematic sampling, so every seed asks for the same mix),
    in seeded order."""
    cumulative = list(accumulate(gaussian_tree_weights()))
    start = rng.random()
    types = [EC2_INSTANCE_TYPES[min(bisect_left(cumulative, (j + start) / count),
                                    len(EC2_INSTANCE_TYPES) - 1)]
             for j in range(count)]
    rng.shuffle(types)
    return types


def _digest(parts: List[Any]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
    return digest.hexdigest()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _cache_ratio(plane: RBay, family: str) -> float:
    hits = plane.counters.get(f"{family}.hit")
    return _ratio(hits, hits + plane.counters.get(f"{family}.miss"))


@dataclass(frozen=True)
class _Traffic:
    """The plane's traffic counters; subtract two readings for a window."""

    events: int
    messages: int
    model_bytes: int
    wire_bytes: int

    @classmethod
    def read(cls, plane: RBay) -> "_Traffic":
        network = plane.network
        return cls(plane.sim.events_executed, network.messages_sent,
                   network.bytes_sent, getattr(network, "wire_bytes_sent", 0))

    def __sub__(self, before: "_Traffic") -> "_Traffic":
        return _Traffic(self.events - before.events, self.messages - before.messages,
                        self.model_bytes - before.model_bytes,
                        self.wire_bytes - before.wire_bytes)


def _row(outcome: Any) -> Any:
    """Canonical form of one query outcome (what the signatures hash)."""
    if isinstance(outcome, Exception):
        return type(outcome).__name__
    if outcome.entries and "count" in outcome.entries[0]:
        return outcome.satisfied, [sorted(e.items()) for e in outcome.entries]
    return outcome.satisfied, sorted(outcome.node_ids())


def _exact(traffic: _Traffic, ops: int, satisfied_frac: float,
           latencies: List[float]) -> Dict[str, float]:
    """The end-to-end metrics the simulation decides."""
    return {
        "msgs_per_op": traffic.messages / ops,
        "bytes_per_msg": (traffic.wire_bytes or traffic.model_bytes) / traffic.messages,
        "satisfied_frac": satisfied_frac,
        "sim_latency_ms_p50": percentile(latencies or [0.0], 50),
        "sim_latency_ms_p90": percentile(latencies or [0.0], 90),
    }


def _counts(plane: RBay, traffic: _Traffic, results: List[Any], waits: List[float],
            latencies: List[float]) -> Dict[str, float]:
    """The exact per-layer counts every workload reads the same way:
    ``results`` are the typed completions, ``waits`` their admission waits
    and ``latencies`` the due-to-done times of all ops (simulated ms)."""
    visited = sum(r.visited_members for r in results)
    returned = sum(1 for r in results for entry in r.entries if "address" in entry)
    return {
        "sim.events_executed": traffic.events,
        "net.messages_sent": traffic.messages,
        "net.bytes_sent": traffic.model_bytes,
        "net.messages_dropped": plane.network.messages_dropped,
        "pastry.routes_forwarded": sum(n.stats["route_forwarded"] for n in plane.nodes),
        "scribe.acc_cache_hit_ratio": _cache_ratio(plane, "scribe.acc_cache"),
        "scribe.anycast_visits_per_query": _ratio(visited, len(results)),
        "query.visit_yield": _ratio(returned, visited),
        "query.retries": sum(r.retries for r in results),
        "query.orphan_releases": plane.counters.get("query.orphan_release"),
        "query.admission_max_queued": plane.admission.max_queued,
        "query.admission_wait_sim_ms_p90": percentile(waits or [0.0], 90),
        "query.protocol_latency_sim_ms_p50": percentile(
            [r.latency_ms for r in results] or [0.0], 50),
        "query.sim_latency_ms_p99": percentile(latencies or [0.0], 99),
        "query.probe_cache_hit_ratio": _cache_ratio(plane, "query.probe_cache"),
        "aa.handler_errors": sum(n.aa.error_count() for n in plane.nodes),
        "transport.wire_bytes_sent": traffic.wire_bytes,
    }


def _dress(plane: RBay) -> FederationWorkload:
    """The paper's evaluation dressing with password ``onGet`` gates.

    Threshold-tree membership is the plain predicate, not the
    ``onSubscribe`` handler: that handler also answers for the bucket
    trees of the same attribute and files every node under the wrong
    buckets (README.md, "Known defects"), which the GROUP BY population
    check would fail on.
    """
    return FederationWorkload(plane, WorkloadSpec(
        password=PASSWORD, active_subscriptions=False)).apply()


def _closed_loop(plane: RBay, queries: List[Tuple[str, str]], trace: NullTracer,
                 timed: bool = True, think_ms: float = 0.0) -> Tuple[SliceClock, List[Any]]:
    """One client asking ``(origin, sql)`` pairs one after the other, each
    query its own slice.  Returns the clock and each query's outcome: the
    ``QueryResult``, or the exception it raised — a failed op, not a failed
    run.  ``think_ms`` of simulated idling follows each query, untimed."""
    options = {site.name: QueryOptions(origin=site.name, payload={"password": PASSWORD})
               for site in plane.registry}
    outcomes: List[Any] = []

    def one_query(origin: str, sql: str) -> None:
        try:
            outcomes.append(plane.query(sql, options=options[origin]))
        except Exception as exc:
            outcomes.append(exc)

    query = trace.wrap("bench.query", one_query)
    clock = SliceClock(trace.wrap, chunks=1 if timed else 0)
    for origin, sql in queries:
        clock.time(query, origin, sql)
        if think_ms:
            plane.sim.run(until=plane.sim.now + think_ms)
    return clock, outcomes


def _check_outcomes(plane: RBay, queries: List[Tuple[str, str]],
                    outcomes: List[Any]) -> List[str]:
    errors: List[str] = []
    for (_, sql), outcome in zip(queries, outcomes):
        if not isinstance(outcome, Exception):
            errors += checks.check_rows(plane, sql, outcome, len(plane.nodes))
    return errors


def _run_window(sim: Any, wrap: Callable[..., Any], window_start: float,
                window_ms: float, slice_ms: float, drain_ms: float,
                settled: Callable[[], bool]) -> SliceClock:
    """Run an open-loop window in timed slices of ``slice_ms`` simulated ms.

    The last slice also drains: it runs on (bounded by ``drain_ms``) until
    ``settled()``, so an op that completes late still costs host time.
    """
    clock = SliceClock(wrap, chunks=2)  # long slices: calibrate ~5-15 % of them
    slices = int(window_ms // slice_ms)
    for k in range(1, slices):
        clock.time(sim.run, window_start + k * slice_ms)
    window_end = window_start + window_ms
    guard = window_end + drain_ms

    def last_slice() -> None:
        sim.run(until=window_end)
        while not settled() and sim.now < guard:
            sim.run(until=min(sim.now + 500.0, guard))

    clock.time(last_slice)
    return clock


# ----------------------------------------------------------------------
# publish_storm
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PublishStormSpec:
    sites: int = 32
    nodes_per_site: int = 32
    publish_interval_ms: float = 50.0
    window_ms: float = 6_000.0
    slice_ms: float = 50.0
    queries: int = 192
    query_burst: int = 32
    query_window: int = 16
    query_span: int = 3
    query_k: int = 2
    drain_ms: float = 20_000.0
    tracing: bool = False
    sanitize: bool = False


def run_publish_storm(spec: PublishStormSpec, seed: int,
                      trace: NullTracer = _UNTRACED) -> Rep:
    """Open loop: publish waves on a fixed tick plus bursts of queries."""
    started = perf_counter()
    plane = RBay(RBayConfig(
        seed=PLANE_SEED, nodes_per_site=spec.nodes_per_site,
        synthetic_sites=spec.sites, jitter=False,
        query_window=spec.query_window,
        tracing=spec.tracing, sanitize=spec.sanitize,
    )).build()
    # Lean dressing: instance-type trees only, so the measured traffic is
    # the roll-up storm plus the queries.
    FederationWorkload(plane, WorkloadSpec(
        gate_policies=False, utilization_thresholds=(),
        active_subscriptions=False)).apply()
    topic_of = {site.name: site_tree(site.name, LOAD_TREE) for site in plane.registry}
    for node in plane.nodes:
        node.scribe.join(node, topic_of[node.site.name], scope="site")
    plane.sim.run()
    plane.start_maintenance()
    plane.settle(1_000.0)
    setup_s = perf_counter() - started

    sim = plane.sim
    site_names = list(topic_of)
    load_rng = _rng(seed, "publish")
    query_rng = _rng(seed, "queries")
    window_start = sim.now
    window_end = window_start + spec.window_ms
    publish_plan = [(node.scribe, node, topic_of[node.site.name]) for node in plane.nodes]
    last_published: Dict[int, Dict[str, float]] = {n.address: {} for n in plane.nodes}
    publishes = [0]

    def publish_wave() -> None:
        uniform = load_rng.uniform
        for scribe, node, topic in publish_plan:
            mine = last_published[node.address]
            for agg in AGGREGATES:
                value = uniform(0.0, 100.0)
                mine[agg] = value
                scribe.set_local(node, topic, agg, value)
        publishes[0] += len(publish_plan) * len(AGGREGATES)
        if sim.now + spec.publish_interval_ms <= window_end:
            sim.schedule(spec.publish_interval_ms, wave)

    wave = trace.wrap("bench.publish_wave", publish_wave)

    bursts = -(-spec.queries // spec.query_burst)
    burst_gap = spec.window_ms / bursts
    origins = _balanced(query_rng, site_names, spec.queries)
    types = _instance_types(query_rng, spec.queries)
    planned = []
    for i, (origin, itype) in enumerate(zip(origins, types)):
        others = [s for s in site_names if s != origin]
        span = min(spec.query_span, len(site_names))
        froms = [origin] + query_rng.sample(others, span - 1)
        planned.append((
            (i // spec.query_burst) * burst_gap,
            composite_query(query_rng, froms, k=spec.query_k, instance_type=itype),
            QueryOptions(origin=origin, caller=f"storm-{i}"),
        ))
    records: Dict[int, Tuple[float, float, Any]] = {}

    def submit_one(index: int) -> None:
        _, sql, options = planned[index]
        due = sim.now
        plane.submit(sql, options=options).add_callback(
            lambda value: records.__setitem__(index, (due, sim.now, value)))

    submit = trace.wrap("bench.submit", submit_one)
    trace.start(plane)
    before = _Traffic.read(plane)
    sim.schedule(0.0, wave)
    for i, (offset, _, _) in enumerate(planned):
        sim.schedule(offset, submit, i)
    clock = _run_window(sim, trace.wrap, window_start, spec.window_ms, spec.slice_ms,
                        spec.drain_ms, lambda: len(records) == spec.queries)
    trace.stop(plane)
    sim_ms = sim.now - window_start
    traffic = _Traffic.read(plane) - before
    plane.stop_maintenance()

    results = [v for _, _, v in records.values() if not isinstance(v, Exception)]
    ops = publishes[0] + spec.queries
    errors = _check_outcomes(plane, [(None, planned[i][1]) for i in sorted(records)],
                             [records[i][2] for i in sorted(records)])
    signature = _digest(
        [(i, due, done, _row(v)) for i, (due, done, v) in sorted(records.items())]
        + [round(sim.now, 6), publishes[0], traffic.messages])
    sim.run()  # quiescent: every roll-up has reached its root
    errors += checks.check_root_aggregates(plane, topic_of, last_published)

    latencies = [done - due for due, done, _ in records.values()]
    waits = [v.started_at - due for due, _, v in records.values()
             if not isinstance(v, Exception)]
    return Rep(
        setup_s=setup_s, slices=clock.walls, calibration=clock.calibration,
        attempted=ops, failed=spec.queries - len(results),
        exact=_exact(traffic, ops, sum(r.satisfied for r in results) / spec.queries,
                     latencies),
        counts=_counts(plane, traffic, results, waits, latencies),
        signature=signature, latency_samples=len(latencies), sim_ms=sim_ms,
        errors=errors,
    )


# ----------------------------------------------------------------------
# query_mix
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryMixSpec:
    nodes_per_site: int = 25
    queries: int = 400
    warmup_queries: int = 16
    lease_ms: float = 500.0
    buckets: int = 8


def query_mix_plan(spec: QueryMixSpec, seed: int,
                   site_names: List[str]) -> List[Tuple[str, str]]:
    """``(origin, sql)`` pairs: 75 % composite over 1/2/4/8-site location
    predicates (the four spans in rotation, so every seed offers the same
    share of each), 25 % BETWEEN / open range / GROUP BY."""
    rng = _rng(seed, "query-mix")
    total = spec.queries + spec.warmup_queries
    ranges = iter(range_query_mix(
        rng, SkewedSpec(buckets=spec.buckets), -(-total // 4)))
    origins = _balanced(rng, site_names, total)
    types = _instance_types(rng, total)
    plan = []
    for i, (origin, itype) in enumerate(zip(origins, types)):
        if i % 4 == 3:
            plan.append((origin, next(ranges)[1]))
            continue
        span = (1, 2, 4, 8)[(i // 4) % 4]
        if span >= len(site_names):
            froms = None
        else:
            others = [s for s in site_names if s != origin]
            froms = [origin] + rng.sample(others, span - 1)
        plan.append((origin, composite_query(rng, froms, k=1, instance_type=itype)))
    return plan


def run_query_mix(spec: QueryMixSpec, seed: int,
                  trace: NullTracer = _UNTRACED) -> Rep:
    """Closed loop, one client, on the paper's 8 EC2 sites."""
    started = perf_counter()
    plane = RBay(RBayConfig(seed=PLANE_SEED, nodes_per_site=spec.nodes_per_site,
                            lease_ms=spec.lease_ms)).build()
    _dress(plane)
    plane.register_buckets("CPU_utilization", 0.0, 100.0, buckets=spec.buckets)
    plane.sim.run()
    plane.start_maintenance()
    plane.settle(1_000.0)
    plan = query_mix_plan(spec, seed, [site.name for site in plane.registry])
    _closed_loop(plane, plan[:spec.warmup_queries], trace, timed=False)
    setup_s = perf_counter() - started

    measured = plan[spec.warmup_queries:]
    sim = plane.sim
    trace.start(plane)
    window_start = sim.now
    before = _Traffic.read(plane)
    clock, outcomes = _closed_loop(plane, measured, trace)
    trace.stop(plane)
    sim_ms = sim.now - window_start
    traffic = _Traffic.read(plane) - before
    plane.stop_maintenance()

    results = [o for o in outcomes if not isinstance(o, Exception)]
    latencies = [r.latency_ms for r in results]
    return Rep(
        setup_s=setup_s, slices=clock.walls, calibration=clock.calibration,
        attempted=len(measured), failed=len(outcomes) - len(results),
        exact=_exact(traffic, len(measured),
                     sum(r.satisfied for r in results) / len(measured), latencies),
        counts=_counts(plane, traffic, results, [], latencies),
        signature=_digest([_row(o) for o in outcomes] + latencies
                          + [round(sim.now, 6), traffic.messages]),
        latency_samples=len(latencies), sim_ms=sim_ms,
        errors=_check_outcomes(plane, measured, outcomes),
    )


# ----------------------------------------------------------------------
# market
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MarketSpec:
    sites: int = 8
    nodes_per_site: int = 16
    users: int = 1 << 20
    user_zipf_s: float = 1.1
    arrival_rate_per_s: float = 40.0
    window_ms: float = 10_000.0
    spike_start_ms: float = 3_500.0
    spike_ms: float = 3_000.0
    spike_multiplier: float = 3.0
    slice_ms: float = 100.0
    demand_max: int = 4
    demand_alpha: float = 1.4
    request_budget: float = 60.0
    min_credit: float = 0.05
    overask: float = 2.0
    initial_instances: int = 2
    initial_price: float = 4.0
    lease_ms: float = 1_500.0
    hold_ms: float = 800.0
    query_window: int = 24
    scale_interval_ms: float = 500.0
    reprice_interval_ms: float = 1_000.0
    drain_ms: float = 15_000.0


def market_arrivals(spec: MarketSpec, seed: int) -> List[Tuple[float, int, int]]:
    """Open-loop schedule ``(due offset ms, user id, units wanted)``.

    A Poisson process at ``arrival_rate_per_s`` with a ``spike_multiplier``
    spike window, conditioned on its expected count: given the count, the
    arrival instants of a Poisson process are independent draws from its
    normalized intensity, so every seed offers the same number of ops.
    Users come from a zipf population.
    """
    rng = _rng(seed, "arrivals")
    zipf_cum = zipf_cumulative(spec.users, spec.user_zipf_s)
    # Expected arrivals before / inside / after the spike window.
    per_ms = spec.arrival_rate_per_s / 1_000.0
    spike_end = spec.spike_start_ms + spec.spike_ms
    mass = (per_ms * spec.spike_start_ms,
            per_ms * spec.spike_multiplier * spec.spike_ms,
            per_ms * (spec.window_ms - spike_end))
    count = round(sum(mass))
    # Demand 1 + a clamped pareto tail, P(wanted >= k) = k ** -alpha, drawn
    # systematically so that every seed demands the same number of units.
    start = rng.random()
    demands = [min(spec.demand_max, int((1.0 - (j + start) / count) ** (-1.0 / spec.demand_alpha)))
               for j in range(count)]
    rng.shuffle(demands)
    arrivals = []
    for wanted in demands:
        draw = rng.random() * sum(mass)
        if draw < mass[0]:
            offset = draw / per_ms
        elif draw < mass[0] + mass[1]:
            offset = spec.spike_start_ms + (draw - mass[0]) / (per_ms * spec.spike_multiplier)
        else:
            offset = spike_end + (draw - mass[0] - mass[1]) / per_ms
        uid = bisect_left(zipf_cum, rng.random() * zipf_cum[-1])
        arrivals.append((offset, uid, wanted))
    return sorted(arrivals)


def run_market(spec: MarketSpec, seed: int, trace: NullTracer = _UNTRACED) -> Rep:
    """Open loop: priced purchases against repricing and auto-scaling."""
    arrivals = market_arrivals(spec, seed)
    started = perf_counter()
    plane = RBay(RBayConfig(
        seed=PLANE_SEED, nodes_per_site=spec.nodes_per_site,
        synthetic_sites=spec.sites, lease_ms=spec.lease_ms, reservation_hold_ms=spec.hold_ms,
        query_window=spec.query_window,
    )).build()
    sim = plane.sim
    site_names = [site.name for site in plane.registry]
    ledger = MarketLedger()
    pricers: Dict[str, SpotPricer] = {}
    scalers: Dict[str, SiteAutoscaler] = {}
    for name in site_names:
        # Node 0 of each site is its query interface and multicast origin;
        # it is never posted, so elasticity cannot retire the coordinator.
        gateway, *pool = plane.site_nodes(name)
        pricer = SpotPricer(plane.admin(name), gateway, MARKET_TREE,
                            plane.obs.metrics, price=spec.initial_price)
        scaler = SiteAutoscaler(
            plane.admin(name), pool, AutoscaleConfig(),
            rng=_rng(seed, f"scale-{name}"), metrics=plane.obs.metrics,
            attribute=MARKET_ATTRIBUTE, value=True,
            price_of=lambda p=pricer: p.price, min_credit=spec.min_credit)
        scaler.start(spec.initial_instances)
        pricers[name], scalers[name] = pricer, scaler
    sim.run()
    plane.start_maintenance()
    plane.settle(800.0)
    setup_s = perf_counter() - started

    window_start = sim.now
    window_end = window_start + spec.window_ms
    customer_rng = _rng(seed, "customers")
    customers: Dict[int, CostAwareCustomer] = {}
    records: Dict[int, Tuple[float, Any]] = {}
    paid: Dict[int, float] = {}

    def scale_tick() -> None:
        for name in site_names:
            scalers[name].tick()
        if sim.now + spec.scale_interval_ms <= window_end:
            sim.schedule(spec.scale_interval_ms, scale)

    def price_tick() -> None:
        for name in site_names:
            pricers[name].tick()
        if sim.now + spec.reprice_interval_ms <= window_end:
            sim.schedule(spec.reprice_interval_ms, price)

    def fire_arrival(index: int) -> None:
        _, uid, wanted = arrivals[index]
        customer = customers.get(uid)
        if customer is None:
            home = plane.site_nodes(site_names[uid % len(site_names)])[0]
            customer = customers[uid] = CostAwareCustomer(
                f"u{uid}", home, customer_rng, wallet=0.0, ledger=ledger,
                overask=spec.overask, credit=user_credit(uid))
        customer.wallet = spec.request_budget  # budgets are per purchase
        sql = f"SELECT {wanted} FROM * WHERE {MARKET_ATTRIBUTE} = true;"

        def settle(value: Any) -> None:
            records[index] = (sim.now, value)
            paid[index] = spec.request_budget - customer.wallet

        plane.admission.submit(lambda: customer.buy(sql),
                               label=customer.home.site.name).add_callback(settle)

    scale = trace.wrap("bench.scale_tick", scale_tick)
    price = trace.wrap("bench.price_tick", price_tick)
    arrive = trace.wrap("bench.arrival", fire_arrival)
    trace.start(plane)
    before = _Traffic.read(plane)
    sim.schedule(0.0, scale)
    sim.schedule(spec.reprice_interval_ms / 2.0, price)
    for index, (offset, _, _) in enumerate(arrivals):
        sim.schedule(offset, arrive, index)
    clock = _run_window(sim, trace.wrap, window_start, spec.window_ms, spec.slice_ms,
                        spec.drain_ms, lambda: len(records) == len(arrivals))
    trace.stop(plane)
    sim_ms = sim.now - window_start
    traffic = _Traffic.read(plane) - before
    plane.stop_maintenance()

    results = [v for _, v in records.values() if not isinstance(v, Exception)]
    demanded = sum(wanted for _, _, wanted in arrivals)
    granted = sum(len(r.entries) for r in results)
    errors: List[str] = []
    if plane.admission.queued or plane.admission.in_flight:
        errors.append(f"admission not empty after the drain: "
                      f"{plane.admission.queued} queued, "
                      f"{plane.admission.in_flight} in flight")
    signature = _digest(
        [(i, done, type(v).__name__ if isinstance(v, Exception) else
          sorted(e["address"] for e in v.entries), round(paid[i], 6))
         for i, (done, v) in sorted(records.items())]
        + [(name, round(pricers[name].price, 6), scalers[name].instances)
           for name in site_names]
        + [round(sim.now, 6), traffic.messages])
    # Leases are released lazily against the clock: let the last one lapse.
    sim.run(until=sim.now + spec.lease_ms + spec.hold_ms)
    sim.run()
    errors += checks.check_no_reservations(plane)

    latencies = [done - (window_start + arrivals[i][0])
                 for i, (done, _) in records.items()]
    waits = [v.started_at - (window_start + arrivals[i][0])
             for i, (_, v) in records.items() if not isinstance(v, Exception)]
    counts = _counts(plane, traffic, results, waits, latencies)
    counts["ext.reprice_events"] = sum(p.changes for p in pricers.values())
    counts["ext.scale_events"] = sum(s.scaled_out + s.scaled_in for s in scalers.values())
    return Rep(
        setup_s=setup_s, slices=clock.walls, calibration=clock.calibration,
        attempted=len(arrivals), failed=len(arrivals) - len(results),
        exact=_exact(traffic, len(arrivals), granted / demanded, latencies),
        counts=counts, signature=signature, latency_samples=len(latencies),
        sim_ms=sim_ms, errors=errors,
    )


# ----------------------------------------------------------------------
# live_queries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LiveQueriesSpec:
    sites: int = 4
    nodes_per_site: int = 3
    queries: int = 900
    warmup_queries: int = 12
    time_scale: float = 0.02
    #: One virtual millisecond: a committed lease has lapsed before the
    #: next query of the closed loop starts, on either transport, so the
    #: rows cannot depend on how fast the wall clock ran.
    lease_ms: float = 1.0
    #: Client think time between queries (virtual ms, outside the timed
    #: slice): long enough for the previous query's commit to land and
    #: its lease to lapse before the next query looks at the node.
    think_ms: float = 60.0
    buckets: int = 4


def _live_plan(spec: LiveQueriesSpec, seed: int, plane: RBay,
               dressing: FederationWorkload) -> List[Tuple[str, str]]:
    """GROUP BY / 2-site composite / local composite, cycling, over the
    instance types the dressed plane actually holds."""
    rng = _rng(seed, "live")
    site_names = [site.name for site in plane.registry]
    held = {name: sorted({dressing.instance_of[n.address]
                          for n in plane.site_nodes(name)}) for name in site_names}
    plan = []
    for i in range(spec.queries + spec.warmup_queries):
        origin = site_names[i % len(site_names)]
        if i % 3 == 0:
            plan.append((origin, "SELECT * FROM * GROUP BY CPU_utilization;"))
        elif i % 3 == 1:
            other = rng.choice([s for s in site_names if s != origin])
            itype = rng.choice(sorted(set(held[origin]) | set(held[other])))
            plan.append((origin, composite_query(rng, [origin, other], k=1,
                                                 instance_type=itype)))
        else:
            plan.append((origin, composite_query(
                rng, [origin], k=1, instance_type=rng.choice(held[origin]))))
    return plan


def run_live_arm(spec: LiveQueriesSpec, seed: int, transport: str,
                 trace: NullTracer = _UNTRACED) -> Rep:
    """One closed-loop pass on ``transport`` (``"asyncio"`` is the measured
    arm, ``"sim"`` the oracle the rows are compared with)."""
    started = perf_counter()
    config = dict(seed=PLANE_SEED, synthetic_sites=spec.sites,
                  nodes_per_site=spec.nodes_per_site, lease_ms=spec.lease_ms)
    if transport == "asyncio":
        config.update(transport="asyncio", time_scale=spec.time_scale,
                      connect_retries=1)
    plane = RBay(RBayConfig(**config)).build()
    try:
        dressing = _dress(plane)
        plane.register_buckets("CPU_utilization", 0.0, 100.0, buckets=spec.buckets)
        plane.sim.run()
        plan = _live_plan(spec, seed, plane, dressing)
        _closed_loop(plane, plan[:spec.warmup_queries], trace, timed=False,
                     think_ms=spec.think_ms)
        setup_s = perf_counter() - started

        measured = plan[spec.warmup_queries:]
        trace.start(plane)
        window_start = plane.sim.now
        before = _Traffic.read(plane)
        clock, outcomes = _closed_loop(plane, measured, trace, think_ms=spec.think_ms)
        trace.stop(plane)
        sim_ms = plane.sim.now - window_start
        traffic = _Traffic.read(plane) - before

        results = [o for o in outcomes if not isinstance(o, Exception)]
        latencies = [r.latency_ms for r in results]
        rows = [_row(o) for o in outcomes]
        exact = _exact(traffic, len(measured),
                       sum(r.satisfied for r in results) / len(measured), latencies)
        # A stall past a protocol timeout costs the live arm a retry and
        # its clock is the wall clock: only rows and satisfaction are exact.
        return Rep(
            setup_s=setup_s, slices=clock.walls, calibration=clock.calibration,
            attempted=len(measured), failed=len(outcomes) - len(results),
            exact={"satisfied_frac": exact.pop("satisfied_frac")}, host=exact,
            counts=_counts(plane, traffic, results, [], latencies),
            signature=_digest(rows), latency_samples=len(latencies), sim_ms=sim_ms,
            errors=_check_outcomes(plane, measured, outcomes), rows=rows,
        )
    finally:
        plane.close()
