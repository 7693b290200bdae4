"""Scale-push workload: thousand-node federations under concurrent load.

The driver behind ``benchmarks/test_scale.py`` and the ``rbay scale`` CLI
subcommand.  It builds a synthetic federation (``sites x nodes_per_site``
servers), dresses it with the paper's instance-type trees, then applies
two load sources at once:

* a **publish storm** — every node re-publishes its load sample into its
  site's ``load`` aggregate tree on a fixed tick, so a burst of leaf
  updates races up the aggregation trees; and
* a **concurrent query stream** — composite queries admitted through the
  :class:`~repro.query.admission.AdmissionController` window via the
  stable :meth:`RBay.submit` facade.

Everything is driven through the public facade only; nothing here touches
executor internals.

Throughput metric
-----------------
``events_per_sec`` is the number of *workload* events (publishes plus
completed queries) divided by host wall-clock seconds.  The numerator is
fixed by the spec, so two commits' figures on the same spec compare as a
pure wall-clock ratio, immune to an engine simply *doing* fewer internal
events.  The raw simulator event count is reported separately as
``sim_events_executed``.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from repro.core.naming import site_tree
from repro.core.plane import RBay, RBayConfig
from repro.metrics.stats import mean, percentile
from repro.query.options import QueryOptions
from repro.workloads.generator import FederationWorkload, WorkloadSpec
from repro.workloads.queries import composite_query

#: Site-scoped aggregate tree every node publishes its load sample into.
LOAD_TREE = "load"


@dataclass(frozen=True)
class ScaleSpec:
    """Parameters for one scale-benchmark run.

    The defaults describe the 1,024-node acceptance configuration:
    32 synthetic sites x 32 nodes, ~8 simulated seconds of measured load.
    """

    #: Synthetic sites in the federation.
    sites: int = 32
    #: Servers per site (total nodes = ``sites * nodes_per_site``).
    nodes_per_site: int = 32
    seed: int = 2017
    #: Settle time after dressing, before the measured window (ms).
    warmup_ms: float = 1_000.0
    #: Measured window of simulated time (ms).
    duration_ms: float = 5_000.0
    #: Publish-storm tick: every node re-publishes each tick (ms).
    publish_interval_ms: float = 50.0
    #: Aggregates each node refreshes per tick (1..3 of sum/max/min); a
    #: tick's refreshes fold into one roll-up.
    publish_aggregates: int = 3
    #: Total composite queries submitted inside the window.
    queries: int = 96
    #: Queries submitted per burst (bursts are spread over the window).
    query_burst: int = 32
    #: SELECT k of each composite query.
    query_k: int = 2
    #: Sites named in each query's location predicate.
    query_span: int = 3
    #: Admission window (``RBayConfig.query_window``) — smaller than a
    #: burst so the FIFO queue is actually exercised.
    query_window: int = 16
    #: Roll-up debounce (``RBayConfig.agg_flush_ms``): two publish ticks
    #: per flush at the defaults.
    agg_flush_ms: float = 100.0
    #: Drain budget after the window for still-in-flight queries (ms).
    drain_ms: float = 20_000.0
    #: Attach the runtime invariant sanitizer (:mod:`repro.check`).  The
    #: metrics dict gains a ``"sanitizer"`` entry; the run ``signature``
    #: is computed before the sanitizer's quiescent drain, so it stays
    #: identical with the sanitizer on or off.
    sanitize: bool = False
    #: Sweep cadence for the sanitizer (events between periodic sweeps).
    sanitize_sweep_events: int = 50_000
    #: Raise on the first violation instead of collecting the report.
    sanitize_fail_fast: bool = False

    @property
    def total_nodes(self) -> int:
        """Total servers in the federation."""
        return self.sites * self.nodes_per_site


def _build_plane(spec: ScaleSpec) -> RBay:
    """Synthetic federation dressed with instance trees + load trees."""
    plane = RBay(RBayConfig(
        seed=spec.seed,
        nodes_per_site=spec.nodes_per_site,
        synthetic_sites=spec.sites,
        jitter=False,  # deterministic latencies -> coalescible deliveries
        query_window=spec.query_window,
        agg_flush_ms=spec.agg_flush_ms,
        sanitize=spec.sanitize,
        sanitize_sweep_events=spec.sanitize_sweep_events,
        sanitize_fail_fast=spec.sanitize_fail_fast,
    )).build()
    # Lean dressing: instance-type trees only (no gates, no threshold
    # trees) so the measured traffic is the publish storm + queries.
    FederationWorkload(plane, WorkloadSpec(
        gate_policies=False,
        utilization_thresholds=(),
        active_subscriptions=False,
    )).apply()
    for node in plane.nodes:
        node.scribe.join(node, site_tree(node.site.name, LOAD_TREE),
                         scope="site")
    plane.sim.run()
    return plane


def run_scale(spec: Optional[ScaleSpec] = None) -> Dict[str, Any]:
    """Run the scale workload and return its metrics dict (JSON-serializable).

    Wall-clock is measured with ``time.perf_counter`` around the whole
    measured window (publish storm + query stream + drain); the plane
    build and warmup are excluded.  The returned ``signature`` hashes
    every simulation-visible outcome (query results and end-of-run sim
    state), so two same-spec runs must produce identical signatures.
    """
    import time

    spec = spec if spec is not None else ScaleSpec()
    plane = _build_plane(spec)
    sim = plane.sim
    site_names = [site.name for site in plane.registry]

    plane.start_maintenance()
    plane.settle(spec.warmup_ms)

    # ------------------------------------------------------------------
    # Publish storm: every node re-publishes on a shared tick.
    load_rng = plane.streams.stream("scale-load")
    aggs = ("sum", "max", "min")[:max(1, min(3, spec.publish_aggregates))]
    publishes = 0
    # Hoisted per-wave plan: the node set is fixed for the whole run, so
    # the topic strings and scribe lookups are computed once, not once per
    # wave.  Node order and the per-(node, agg) RNG call order are exactly
    # the original loop's, keeping the load draws — and the signature —
    # bit-identical.
    publish_plan = [(node.scribe, node, site_tree(node.site.name, LOAD_TREE))
                    for node in plane.nodes]
    uniform = load_rng.uniform

    def publish_wave() -> None:
        nonlocal publishes
        for scribe, node, topic in publish_plan:
            for agg in aggs:
                scribe.set_local(node, topic, agg, uniform(0.0, 100.0))
        publishes += len(publish_plan) * len(aggs)
        if sim.now + spec.publish_interval_ms <= window_end:
            sim.schedule(spec.publish_interval_ms, publish_wave)

    # ------------------------------------------------------------------
    # Concurrent query stream: bursts through the admission window.
    query_rng = plane.streams.stream("scale-queries")
    bursts = max(1, -(-spec.queries // spec.query_burst))  # ceil division
    burst_gap = spec.duration_ms / bursts
    planned: List[Dict[str, Any]] = []
    for i in range(spec.queries):
        origin = query_rng.choice(site_names)
        span = min(spec.query_span, len(site_names))
        others = [s for s in site_names if s != origin]
        froms = [origin] + query_rng.sample(others, span - 1)
        planned.append({
            "at": (i // spec.query_burst) * burst_gap,
            "sql": composite_query(query_rng, froms, k=spec.query_k),
            "options": QueryOptions(origin=origin, caller=f"scale-{i}"),
        })

    records: List[Dict[str, Any]] = []

    def submit_one(index: int) -> None:
        plan = planned[index]
        submitted = sim.now

        def finish(value: Any) -> None:
            rec: Dict[str, Any] = {
                "index": index,
                "submitted_at": submitted,
                "finished_at": sim.now,
                "sojourn_ms": sim.now - submitted,
            }
            if isinstance(value, Exception):
                rec["error"] = type(value).__name__
            else:
                rec["satisfied"] = value.satisfied
                rec["degraded"] = value.degraded
                rec["latency_ms"] = value.latency_ms
                rec["entries"] = sorted(value.node_ids())
            records.append(rec)

        plane.submit(plan["sql"], options=plan["options"]).add_callback(finish)

    # ------------------------------------------------------------------
    # Measured window.
    window_start = sim.now
    window_end = window_start + spec.duration_ms
    events_before = sim.events_executed

    sim.schedule(0.0, publish_wave)
    for i in range(spec.queries):
        sim.schedule(planned[i]["at"], submit_one, i)

    wall_start = time.perf_counter()
    sim.run(until=window_end)
    guard = window_end + spec.drain_ms
    while len(records) < spec.queries and sim.now < guard:
        sim.run(until=min(sim.now + 500.0, guard))
    wall_seconds = time.perf_counter() - wall_start
    plane.stop_maintenance()

    # ------------------------------------------------------------------
    # Metrics.
    completed = [r for r in records if "latency_ms" in r]
    latencies = sorted(r["latency_ms"] for r in completed)
    sojourns = sorted(r["sojourn_ms"] for r in records)
    workload_events = publishes + len(records)

    digest = hashlib.sha256()
    for rec in sorted(records, key=lambda r: r["index"]):
        digest.update(repr((
            rec["index"], rec["submitted_at"], rec["finished_at"],
            rec.get("error"), rec.get("satisfied"), rec.get("entries"),
        )).encode())
    digest.update(repr((round(sim.now, 6), publishes)).encode())

    # Sanitized runs drain to true quiescence *after* the signature is
    # sealed (the extra drain advances sim.now, and the signature must be
    # identical with the sanitizer on or off), firing the strict
    # quiescent-point invariant checks via the simulator's idle hook.
    sanitizer_metrics: Optional[Dict[str, Any]] = None
    if plane.sanitizer is not None:
        sim.run()
        sanitizer_metrics = plane.sanitizer.report.to_dict()

    def _pcts(values: List[float]) -> Dict[str, float]:
        if not values:
            return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "mean": 0.0}
        return {
            "p50": percentile(values, 50),
            "p90": percentile(values, 90),
            "p99": percentile(values, 99),
            "mean": mean(values),
        }

    return {
        "spec": asdict(spec),
        "total_nodes": spec.total_nodes,
        "wall_seconds": wall_seconds,
        "sim_ms": sim.now - window_start,
        "publishes": publishes,
        "queries_submitted": spec.queries,
        "queries_completed": len(records),
        "queries_satisfied": sum(1 for r in completed if r["satisfied"]),
        "queries_degraded": sum(1 for r in completed if r.get("degraded")),
        "query_errors": sum(1 for r in records if "error" in r),
        "workload_events": workload_events,
        "events_per_sec": (workload_events / wall_seconds
                           if wall_seconds else 0.0),
        "sim_events_executed": sim.events_executed - events_before,
        "messages_sent": plane.network.messages_sent,
        "query_latency_ms": _pcts(latencies),
        "query_sojourn_ms": _pcts(sojourns),
        "admission": {
            "admitted": plane.admission.admitted,
            "max_queued": plane.admission.max_queued,
        },
        "signature": digest.hexdigest(),
        **({"sanitizer": sanitizer_metrics}
           if sanitizer_metrics is not None else {}),
    }
