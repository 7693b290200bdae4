"""Sim-as-oracle validation: the DES is the spec for the live transport.

The same seed drives the same reference federation twice — once on the
deterministic DES backend, once on real sockets — and the *semantic*
outcome must agree: every query returns the same result set, the
aggregate trees report the same sizes, and the invariant sanitizer is
clean in both runs.  Timing is explicitly excluded (wall latency is the
live transport's own business); everything order-dependent is
canonicalized before comparison.

``make live`` / ``tests/test_transport_oracle.py`` run
:func:`run_reference_workload` for both backends and diff the reports;
on divergence, :func:`dump_divergences` writes both reports plus the
field-level differences as sorted, diffable JSON.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, List, Optional

#: Reference federation shape: small enough that the live arm runs in
#: seconds, rich enough to cross every protocol surface (joins, AA
#: policies, aggregation, grouping, range buckets).
REFERENCE_SEED = 2017
REFERENCE_SITES = 4
REFERENCE_NODES_PER_SITE = 3
REFERENCE_PASSWORD = "rbay"


def _canonical_entries(entries: List[Any]) -> List[str]:
    """Order- and float-stable projection of a result's entry rows."""
    rows = []
    for entry in entries:
        if isinstance(entry, dict):
            rows.append(json.dumps(entry, sort_keys=True, default=repr))
        else:
            rows.append(repr(entry))
    return sorted(rows)


def run_reference_workload(transport: str = "sim") -> Dict[str, Any]:
    """Run the reference federation on ``transport``; return its report.

    The report is a plain JSON-serializable dict: ``meta`` (shape),
    ``queries`` (canonicalized per-query outcomes), ``aggregates``
    (instance-type population and tree sizes), and ``sanitizer``
    (violation descriptions, empty when clean).
    """
    from repro.core.plane import RBay, RBayConfig
    from repro.query.options import QueryOptions
    from repro.workloads.generator import FederationWorkload, WorkloadSpec

    config = RBayConfig(
        seed=REFERENCE_SEED,
        synthetic_sites=REFERENCE_SITES,
        nodes_per_site=REFERENCE_NODES_PER_SITE,
        jitter=False,
        sanitize=True,
        transport=transport,
        time_scale=0.05,
    )
    plane = RBay(config).build()
    try:
        workload = FederationWorkload(
            plane, WorkloadSpec(password=REFERENCE_PASSWORD)).apply()
        plane.register_buckets("CPU_utilization", 0.0, 100.0, buckets=4)
        plane.sim.run()  # drain to quiescence on either backend

        # The most popular instance type is a pure function of the seed,
        # so both arms ask about the same trees.
        population = Counter(workload.instance_of.values())
        top_type = population.most_common(1)[0][0]
        payload = {"password": REFERENCE_PASSWORD}
        queries = [
            f"SELECT * FROM * WHERE instance_type = '{top_type}';",
            "SELECT * FROM * WHERE CPU_utilization < 10.0;",
            "SELECT * FROM * GROUP BY CPU_utilization;",
            "SELECT * FROM * WHERE CPU_utilization >= 25.0 "
            "AND CPU_utilization < 75.0 GROUP BY CPU_utilization;",
        ]
        report_queries = []
        for sql in queries:
            result = plane.query(sql, options=QueryOptions(payload=payload))
            report_queries.append({
                "sql": sql,
                "satisfied": result.satisfied,
                "degraded": result.degraded,
                "failed_sites": sorted(result.failed_sites),
                "entries": _canonical_entries(result.entries),
            })
            # Give the leases back: the market scenario below needs the
            # full population reservable.
            for node in plane.nodes:
                node.reservation.release(result.query_id)

        aggregates = {
            "population": {k: population[k] for k in sorted(population)},
            "top_type": top_type,
        }

        # Market scenario: priced + credit-gated postings, an over-asking
        # cheapest-k purchase, an admin repricing multicast, and a second
        # purchase over the repriced market — the economy layer's wire
        # surface (AA gate payloads, priced GROUPBY replies, surplus
        # release fan-out, admin commands) under the same oracle.
        from repro.ext.economy import (CostAwareCustomer, MarketLedger,
                                       post_priced_resource, reprice)

        site_a, site_b = [s.name for s in plane.registry][:2]
        price = 4.0
        for site in (site_a, site_b):
            admin = plane.admin(site)
            for node in plane.site_nodes(site):
                post_priced_resource(admin, node, "market_slot", True,
                                     price, min_credit=0.25)
                price += 2.0
        plane.sim.run()
        ledger = MarketLedger()
        buyer = CostAwareCustomer(
            "oracle-buyer", plane.site_nodes(site_b)[0],
            plane.streams.stream("oracle-market"),
            wallet=60.0, ledger=ledger, overask=2.0, credit=0.8)
        buys = []
        for step in range(2):
            result = buyer.buy(
                "SELECT 2 FROM * WHERE market_slot = true;").result()
            buys.append({
                "satisfied": result.satisfied,
                "entries": _canonical_entries(result.entries),
            })
            if step == 0:
                # Crash the price of the first site's slots; the second
                # buy must shop the repriced market.
                reprice(plane.admin(site_a), plane.site_nodes(site_a)[0],
                        "market_slot", 1.0)
                plane.sim.run()
        market = {
            "buys": buys,
            "wallet": round(buyer.wallet, 6),
            "revenue": {site: round(value, 6) for site, value
                        in sorted(ledger.revenue_by_site().items())},
            "volume": ledger.volume(),
        }
        sanitizer_findings: List[str] = []
        if plane.sanitizer is not None:
            report = plane.sanitizer.report
            sanitizer_findings = sorted(
                v.describe() if hasattr(v, "describe") else str(v)
                for v in report.violations)
        return {
            "meta": {
                "transport": transport,
                "seed": REFERENCE_SEED,
                "sites": REFERENCE_SITES,
                "nodes_per_site": REFERENCE_NODES_PER_SITE,
            },
            "queries": report_queries,
            "aggregates": aggregates,
            "market": market,
            "sanitizer": sanitizer_findings,
        }
    finally:
        plane.close()


def compare_reports(reference: Dict[str, Any],
                    live: Dict[str, Any]) -> List[str]:
    """Field-level divergences between two reports (empty == equivalent).

    ``meta.transport`` is the only field allowed to differ.
    """
    divergences: List[str] = []
    for key in ("seed", "sites", "nodes_per_site"):
        if reference["meta"][key] != live["meta"][key]:
            divergences.append(
                f"meta.{key}: {reference['meta'][key]!r} != {live['meta'][key]!r}")
    ref_queries = {q["sql"]: q for q in reference["queries"]}
    live_queries = {q["sql"]: q for q in live["queries"]}
    for sql in sorted(set(ref_queries) | set(live_queries)):
        a, b = ref_queries.get(sql), live_queries.get(sql)
        if a is None or b is None:
            divergences.append(f"query missing from one arm: {sql}")
            continue
        for field in ("satisfied", "degraded", "failed_sites"):
            if a[field] != b[field]:
                divergences.append(
                    f"{sql} {field}: sim={a[field]!r} live={b[field]!r}")
        if a["entries"] != b["entries"]:
            only_sim = sorted(set(a["entries"]) - set(b["entries"]))
            only_live = sorted(set(b["entries"]) - set(a["entries"]))
            divergences.append(
                f"{sql} entries: {len(only_sim)} only-sim, "
                f"{len(only_live)} only-live "
                f"(first: {(only_sim + only_live)[0][:120]!r})")
    if reference["aggregates"] != live["aggregates"]:
        divergences.append(
            f"aggregates: sim={reference['aggregates']!r} "
            f"live={live['aggregates']!r}")
    if reference.get("market") != live.get("market"):
        divergences.append(
            f"market: sim={reference.get('market')!r} "
            f"live={live.get('market')!r}")
    for arm, rep in (("sim", reference), ("live", live)):
        if rep["sanitizer"]:
            divergences.append(
                f"{arm} sanitizer not clean: {rep['sanitizer'][:3]}")
    return divergences


def dump_divergences(path: str, reference: Dict[str, Any],
                     live: Dict[str, Any],
                     divergences: Optional[List[str]] = None) -> None:
    """Write both reports + the diff as sorted JSON (diff-friendly)."""
    if divergences is None:
        divergences = compare_reports(reference, live)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"divergences": divergences, "sim": reference, "live": live},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")


def validate_live_against_sim(dump_path: Optional[str] = None) -> List[str]:
    """The full oracle check: run both arms, compare, optionally dump.

    Returns the divergence list (empty means the live transport matches
    the deterministic oracle).
    """
    reference = run_reference_workload(transport="sim")
    live = run_reference_workload(transport="asyncio")
    divergences = compare_reports(reference, live)
    if divergences and dump_path is not None:
        dump_divergences(dump_path, reference, live, divergences)
    return divergences
