"""Command-line interface: build a federation, inspect it, run queries.

Usage (installed as the ``rbay`` console script, or ``python -m repro.cli``):

    rbay describe --sites 8 --nodes 20
    rbay query "SELECT 3 FROM * WHERE instance_type = 'c3.large';"
    rbay explain "SELECT 5 FROM Virginia, Tokyo WHERE GPU = true GROUPBY vcpu DESC;"
    rbay latency --origins Virginia Singapore --queries 20
    rbay trace "SELECT 3 FROM * WHERE instance_type = 'c3.large';"
    rbay scale --sites 32 --nodes 32 --no-jitter
    rbay serve --peers peers.json --own Virginia Oregon --time-scale 0.05
    rbay lua "return ('rbay'):upper()"

Every federation-building subcommand shares one flag set (``--seed``,
``--sites``, ``--nodes``, ``--trace-out``, ...) via a common parent
parser.  The CLI builds a workload-dressed federation (the paper's eight
EC2 sites unless ``--sites N`` is given) on the deterministic DES
transport by default — ``--transport asyncio`` runs the same plane on
real TCP sockets; all times shown are in (virtual) milliseconds.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.plane import RBay, RBayConfig
from repro.metrics.stats import LatencyRecorder, format_table, mean, stddev
from repro.query.errors import QueryError
from repro.query.options import QueryOptions
from repro.query.plan import plan_query
from repro.query.sql import parse_query
from repro.workloads.generator import FederationWorkload, WorkloadSpec
from repro.workloads.queries import QueryWorkload


def _load_fault_schedule(args):
    if getattr(args, "fault_schedule", None) is None:
        return None
    from repro.faults import FaultSchedule

    with open(args.fault_schedule, "r", encoding="utf-8") as handle:
        return FaultSchedule.from_json(handle.read())


def _build_plane(args) -> tuple:
    tracing = bool(getattr(args, "trace_out", None)) or bool(
        getattr(args, "force_tracing", False))
    rebalance = None
    if getattr(args, "rebalance", False):
        from repro.scribe.rebalance import RebalanceConfig

        rebalance = RebalanceConfig()
    config = RBayConfig(
        seed=args.seed,
        nodes_per_site=args.nodes,
        synthetic_sites=args.synthetic_sites,
        jitter=not args.no_jitter,
        planner=not getattr(args, "no_planner", False),
        site_retries=getattr(args, "site_retries", 2),
        fault_schedule=_load_fault_schedule(args),
        tracing=tracing,
        sanitize=getattr(args, "sanitize", False),
        sanitize_sweep_events=getattr(args, "sanitize_sweep", 5_000),
        sanitize_fail_fast=getattr(args, "sanitize_fail_fast", False),
        rebalance=rebalance,
        transport=getattr(args, "transport", "sim"),
        wire_check=getattr(args, "wire_check", False),
        time_scale=getattr(args, "time_scale", 1.0),
    )
    plane = RBay(config).build()
    args._plane = plane  # closed by main() (live transport teardown)
    workload = FederationWorkload(plane, WorkloadSpec(password=args.password)).apply()
    if getattr(args, "buckets", 0):
        plane.register_buckets("CPU_utilization", 0.0, 100.0, args.buckets)
    plane.sim.run()
    return plane, workload


def _finish_sanitize(plane) -> int:
    """Shared sanitizer epilogue: drain to quiescence, print the report.

    Returns the number of violations (callers fold it into the exit code).
    """
    if plane.sanitizer is None:
        return 0
    plane.stop_maintenance()
    plane.sim.run()  # full drain fires the quiescent-point checks
    report = plane.sanitizer.report
    print()
    print(report.format())
    return len(report.violations)


def _finish_tracing(plane, args) -> None:
    """Shared tracing epilogue: per-step histogram + Chrome-trace export."""
    if not plane.obs.enabled:
        return
    print()
    print("per-step latency (critical-path spans):")
    print(plane.obs.step_summary())
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        from repro.obs import write_chrome_trace

        write_chrome_trace(trace_out, plane.obs.recorder.spans())
        print(f"\nwrote Chrome trace_event export to {trace_out} "
              f"({len(plane.obs.recorder)} spans; open in Perfetto)")


def _common_parser() -> argparse.ArgumentParser:
    """The shared parent parser: one canonical flag set for every
    federation-building subcommand (``--seed``, ``--sites``, ``--nodes``,
    ``--trace-out``, ...), attached via ``parents=[...]``."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=2017, help="master RNG seed")
    common.add_argument("--nodes", type=int, default=15, help="nodes per site")
    common.add_argument("--sites", "--synthetic-sites", dest="synthetic_sites",
                        type=int, default=None, metavar="N",
                        help="use N synthetic sites instead of the 8 EC2 sites")
    common.add_argument("--no-jitter", action="store_true",
                        help="disable latency jitter (fully deterministic)")
    common.add_argument("--password", default="rbay",
                        help="gate password installed by the workload")
    common.add_argument("--buckets", type=int, default=0, metavar="N",
                        help="range-partition CPU_utilization into N bucketed "
                             "trees (0 disables bucketed indices)")
    common.add_argument("--no-planner", action="store_true",
                        help="disable the range planner (range "
                             "queries flood the whole bucket family)")
    common.add_argument("--fault-schedule", default=None, metavar="PATH",
                        help="JSON fault schedule (see repro.faults) installed "
                             "at build time")
    common.add_argument("--site-retries", type=int, default=2,
                        help="per-step retry budget for lost query-protocol "
                             "rounds (0 disables retries)")
    common.add_argument("--trace-out", default=None, metavar="PATH",
                        help="enable span tracing and write a Chrome "
                             "trace_event export to PATH (view in Perfetto)")
    common.add_argument("--sanitize", action="store_true",
                        help="attach the runtime invariant sanitizer "
                             "(repro.check) and print its report")
    common.add_argument("--sanitize-sweep", type=int, default=5_000,
                        metavar="N",
                        help="events between periodic sanitizer sweeps "
                             "(0 keeps only quiescent/post-event checks)")
    common.add_argument("--sanitize-fail-fast", action="store_true",
                        help="raise on the first invariant violation "
                             "instead of collecting a report")
    common.add_argument("--rebalance", action="store_true",
                        help="enable load-triggered hot-tree root "
                             "replication (D3-Tree style rebalancing "
                             "under skewed workloads)")
    common.add_argument("--transport", choices=("sim", "asyncio"),
                        default="sim",
                        help="message transport: 'sim' (deterministic DES) "
                             "or 'asyncio' (real TCP sockets, wall clock)")
    common.add_argument("--time-scale", type=float, default=1.0,
                        help="live transport only: wall ms per virtual ms "
                             "(0.05 compresses protocol timeouts 20x)")
    common.add_argument("--wire-check", action="store_true",
                        help="sim transport only: round-trip every delivered "
                             "message through the wire codec (wire-safety "
                             "lint; behaviour must stay identical)")
    return common


def cmd_describe(args) -> int:
    """Build a federation and print a per-site summary table."""
    plane, workload = _build_plane(args)
    print(f"Federation: {len(plane.registry)} sites, {len(plane.nodes)} nodes, "
          f"seed {args.seed}")
    rows = []
    for site in plane.registry:
        population = workload.site_instance_population(site.name)
        top = max(population, key=population.get)
        rows.append([
            site.name, site.region, len(plane.site_nodes(site.name)),
            f"{top} x{population[top]}",
            plane.context.gateways.get(site.name, "-"),
        ])
    print(format_table(
        ["site", "region", "nodes", "most common instance", "gateway addr"], rows))
    return 0


def _known_sites(plane, names) -> bool:
    """Whether every name (None: the default) is a site of ``plane``; says which is not."""
    site_names = [s.name for s in plane.registry]
    unknown = [n for n in names if n is not None and n not in site_names]
    if unknown:
        print(f"unknown site {unknown[0]!r}; choices: {', '.join(site_names)}",
              file=sys.stderr)
    return not unknown


def cmd_query(args) -> int:
    """Run one SQL query and print the granted nodes (exit 1 if short)."""
    plane, _ = _build_plane(args)
    if not _known_sites(plane, [args.origin]):
        return 2
    options = QueryOptions(origin=args.origin, caller="cli",
                           payload={"password": args.password})
    if args.explain:
        print(plan_query(parse_query(args.sql), plane.context, options).explain())
        print()
    try:
        result = plane.query(args.sql, options=options)
    except QueryError as exc:
        print(f"query failed: {exc}", file=sys.stderr)
        return 1
    print(f"satisfied: {result.satisfied}  entries: {len(result.entries)}  "
          f"latency: {result.latency_ms:.1f} ms  "
          f"sites answered: {len(result.sites_answered)}")
    if result.entries and "group" in result.entries[0]:
        # GROUP BY answers are per-group counts; they name no node.
        print(format_table(["group", "count"],
                           [[e["group"], e["count"]] for e in result.entries]))
    elif result.entries:
        rows = [[e["site"], e["address"], f"{e['node_id'] % 100_000:>6}…",
                 e.get("order_value", "")]
                for e in result.entries]
        print(format_table(["site", "addr", "node id", "order value"], rows))
    if args.show_counters:
        print()
        print(plane.counters.format())
    violations = _finish_sanitize(plane)
    _finish_tracing(plane, args)
    return 0 if result.satisfied and not violations else 1


def cmd_explain(args) -> int:
    """Print the five-step plan for a query without executing it."""
    plane, _ = _build_plane(args)
    query = parse_query(args.sql)
    print(plan_query(query, plane.context).explain())
    return 0


def cmd_latency(args) -> int:
    """Sweep latency vs. number of requesting sites (Figure 10 style)."""
    plane, _ = _build_plane(args)
    site_names = [s.name for s in plane.registry]
    origins = args.origins or site_names[:3]
    if not _known_sites(plane, origins):
        return 2
    recorder = LatencyRecorder()
    for origin in origins:
        generator = QueryWorkload(plane.streams.stream(f"cli-{origin}"),
                                  site_names, k=1, password=args.password)
        for n_sites in range(1, len(site_names) + 1):
            for sql, payload in generator.stream(origin, n_sites, args.queries):
                result = plane.query(sql, options=QueryOptions(
                    origin=origin, caller=f"cli-{origin}", payload=payload))
                recorder.record(f"{origin}/{n_sites}", result.latency_ms)
    rows = []
    for n_sites in range(1, len(site_names) + 1):
        row = [f"{n_sites}-site"]
        for origin in origins:
            samples = recorder.samples(f"{origin}/{n_sites}")
            row.append(f"{mean(samples):5.0f}±{stddev(samples):3.0f}")
        rows.append(row)
    print(format_table(["location", *(f"{o} (ms)" for o in origins)], rows))
    if args.show_counters:
        print()
        print(plane.counters.format())
    violations = _finish_sanitize(plane)
    _finish_tracing(plane, args)
    return 1 if violations else 0


def cmd_trace(args) -> int:
    """Trace one query end-to-end and print its critical-path breakdown."""
    from repro.obs import critical_path, format_breakdown, format_path, write_json

    args.force_tracing = True
    plane, _ = _build_plane(args)
    if not _known_sites(plane, [args.origin]):
        return 2
    result = plane.query(args.sql, options=QueryOptions(
        origin=args.origin, caller="cli",
        payload={"password": args.password}))
    roots = plane.obs.query_roots()
    if not roots:
        print("no query spans were recorded", file=sys.stderr)
        return 2
    # Protocol-step retries can record several roots; the last one is the
    # attempt that produced the printed result.
    root = roots[-1]
    spans = plane.obs.recorder.trace(root.trace_id)
    segments = critical_path(root, spans)
    print(f"query {root.labels.get('query_id')}: latency {result.latency_ms:.1f} ms  "
          f"satisfied: {result.satisfied}  retries: {result.retries}  "
          f"spans in trace: {len(spans)}")
    print()
    print("critical path (chronological):")
    print(format_path(segments))
    print()
    print("latency attribution by protocol step:")
    print(format_breakdown(segments))
    _finish_tracing(plane, args)
    if args.json_out:
        write_json(args.json_out, plane.obs.recorder.spans())
        print(f"wrote JSON span export to {args.json_out}")
    return 0 if result.satisfied else 1


def cmd_scale(args) -> int:
    """Scale push: publish storm + concurrent queries on a big federation."""
    import json

    from repro.workloads.scale import ScaleSpec, run_scale

    spec = ScaleSpec(
        sites=args.synthetic_sites if args.synthetic_sites else 8,
        nodes_per_site=args.nodes,
        seed=args.seed,
        duration_ms=args.duration,
        queries=args.queries,
        sanitize=args.sanitize,
        sanitize_sweep_events=args.sanitize_sweep,
        sanitize_fail_fast=args.sanitize_fail_fast,
    )
    metrics = run_scale(spec)
    print(f"scale: {metrics['total_nodes']} nodes "
          f"({spec.sites} sites x {spec.nodes_per_site}), "
          f"seed {spec.seed}")
    lat = metrics["query_latency_ms"]
    print(format_table(
        ["wall s", "events/s", "publishes", "queries", "satisfied",
         "p50 ms", "p90 ms", "p99 ms"],
        [[f"{metrics['wall_seconds']:.2f}",
          f"{metrics['events_per_sec']:,.0f}",
          f"{metrics['publishes']:,}",
          metrics["queries_completed"],
          metrics["queries_satisfied"],
          f"{lat['p50']:.0f}", f"{lat['p90']:.0f}", f"{lat['p99']:.0f}"]]))
    print(f"admission: {metrics['admission']['admitted']} admitted, "
          f"max queue {metrics['admission']['max_queued']}  "
          f"signature: {metrics['signature'][:16]}…")
    violations = 0
    if "sanitizer" in metrics:
        san = metrics["sanitizer"]
        violations = len(san["violations"])
        print(f"sanitizer: {violations} violation(s), {san['sweeps']} sweeps, "
              f"{san['quiescent_checks']} quiescent checks")
        for entry in san["violations"]:
            print(f"  {entry['invariant']}: {entry['subject']}: "
                  f"{entry['detail']}")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
        print(f"wrote metrics to {args.json_out}")
    return 1 if violations else 0


def cmd_market(args) -> int:
    """Elastic marketplace: open-loop arrivals, spot pricing, DEPAS scaling."""
    import json

    from repro.workloads.market import MarketSpec, run_market

    spec = MarketSpec(
        sites=args.synthetic_sites if args.synthetic_sites else 4,
        nodes_per_site=args.nodes,
        seed=args.seed,
        users=args.users,
        arrival_rate_per_s=args.arrival_rate,
        spike_multiplier=args.spike,
        duration_ms=args.duration,
        autoscale=not args.no_autoscale,
        reprice=not args.no_reprice,
        sanitize=args.sanitize,
        sanitize_sweep_events=args.sanitize_sweep,
    )
    metrics = run_market(spec)
    print(f"market: {spec.sites} sites x {spec.nodes_per_site} nodes, "
          f"{spec.users:,} users, autoscale "
          f"{'on' if spec.autoscale else 'off'}, reprice "
          f"{'on' if spec.reprice else 'off'}, seed {spec.seed}")
    starve = metrics["starvation_age_ms"]
    print(format_table(
        ["arrivals", "filled", "satisfied", "jain", "revenue",
         "scale out/in", "reprices", "starve p95 ms"],
        [[metrics["arrivals"], metrics["arrivals_filled"],
          f"{metrics['satisfied_demand']:.3f}",
          f"{metrics['jain_fairness']:.3f}",
          f"{metrics['revenue_total']:.1f}",
          f"{metrics['scale_out_events']}/{metrics['scale_in_events']}",
          metrics["reprice_events"],
          f"{starve['p95']:.0f}"]]))
    print(format_table(
        ["site", "revenue", "price", "instances"],
        [[name,
          f"{metrics['revenue_per_site'][name]:.1f}",
          f"{metrics['final_price_per_site'][name]:.2f}",
          metrics["final_instances_per_site"][name]]
         for name in sorted(metrics["revenue_per_site"])]))
    print(f"admission: {metrics['admission']['admitted']} admitted, "
          f"max queue {metrics['admission']['max_queued']}  "
          f"signature: {metrics['signature'][:16]}…")
    violations = 0
    if "sanitizer" in metrics:
        san = metrics["sanitizer"]
        violations = len(san["violations"])
        print(f"sanitizer: {violations} violation(s), {san['sweeps']} sweeps, "
              f"{san['quiescent_checks']} quiescent checks")
        for entry in san["violations"]:
            print(f"  {entry['invariant']}: {entry['subject']}: "
                  f"{entry['detail']}")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
        print(f"wrote metrics to {args.json_out}")
    return 1 if violations else 0


def cmd_check(args) -> int:
    """Replay a fault schedule under the invariant sanitizer.

    Builds a sanitized federation, installs the given ``--fault-schedule``
    (or a seeded randomized one), keeps customers querying through the
    chaos window, drains to quiescence, and prints the violation report.
    Exit code 1 when any invariant was violated.
    """
    import random as _random

    from repro.faults import FaultSchedule
    from repro.query.result import QueryResult

    args.sanitize = True
    plane, _ = _build_plane(args)
    plane.settle(1_000.0)
    # Tight protocol timeouts keep the replay short.
    plane.context.site_timeout_ms = 1_500.0
    plane.context.probe_timeout_ms = 750.0
    plane.start_maintenance()
    if plane.fault_injector is None:
        schedule = FaultSchedule.randomized(
            _random.Random(args.seed * 7 + 1),
            duration_ms=args.window,
            node_count=len(plane.nodes),
            crash_fraction=args.crash_fraction,
            mean_downtime_ms=1_500.0,
            site_names=[s.name for s in plane.registry],
            partitions=args.partitions,
            mean_partition_ms=2_000.0,
            drop_prob=args.drop_prob,
        ).shifted(plane.sim.now)
        plane.install_faults(schedule)
    injector = plane.fault_injector

    site_names = [s.name for s in plane.registry]
    rng = _random.Random(args.seed * 13 + 5)
    generator = QueryWorkload(plane.streams.stream("cli-check"), site_names,
                              k=1, password=args.password)
    futures = []
    for _ in range(args.queries):
        origin = rng.choice(site_names)
        sql, payload = next(iter(generator.stream(origin, 1, 1)))
        at = plane.sim.now + rng.uniform(0.1, 0.9) * args.window

        def fire(sql=sql, payload=payload, origin=origin):
            futures.append(plane.submit(sql, options=QueryOptions(
                origin=origin, caller="check", payload=payload,
                deadline_ms=8_000.0)))

        plane.sim.schedule_at(at, fire)

    plane.run(until=plane.sim.now + args.window + args.quiesce)
    plane.stop_maintenance()
    plane.sim.run()  # drain: the idle hook fires the quiescent checks

    satisfied = sum(1 for f in futures
                    if isinstance(f.value, QueryResult) and f.value.satisfied)
    print(f"check: seed {args.seed}, {len(plane.nodes)} nodes, "
          f"{len(injector.trace)} fault events applied, "
          f"{len(futures)} queries fired ({satisfied} satisfied)")
    if args.show_faults:
        print()
        print(injector.trace_text())
    report = plane.sanitizer.report
    print()
    print(report.format())
    _finish_tracing(plane, args)
    return 1 if report.violations else 0


def cmd_serve(args) -> int:
    """Serve a partition of the federation as one live OS process.

    Every ``serve`` process builds the identical same-seed plane; the
    sites named by ``--own`` run on real sockets here, all other sites
    are shadows reached at the endpoints in the ``--peers`` plan.  With
    ``--make-peers`` the command instead prints a ready-to-edit plan for
    the federation's sites and exits.
    """
    import json

    from repro.transport.serve import PeerPlan, run_serve

    if args.make_peers:
        registry = RBay._make_registry(RBayConfig(
            seed=args.seed, synthetic_sites=args.synthetic_sites))
        doc = PeerPlan.default_document(
            [site.name for site in registry], port_base=args.port_base)
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    if not args.peers or not args.own:
        print("serve needs --peers PATH and --own SITE [SITE ...] "
              "(or --make-peers)", file=sys.stderr)
        return 2
    plan = PeerPlan.load(args.peers, owned=args.own)
    config = RBayConfig(
        seed=args.seed,
        nodes_per_site=args.nodes,
        synthetic_sites=args.synthetic_sites,
        jitter=not args.no_jitter,
        transport="asyncio",
        time_scale=args.time_scale,
        transport_peers=plan,
    )
    return run_serve(config, plan,
                     duration_s=args.duration,
                     settle_ms=args.settle_ms,
                     query=args.sql,
                     query_origin=args.origin,
                     password=args.password,
                     peer_timeout_s=args.peer_timeout)


def cmd_lua(args) -> int:
    """Run a Luette chunk in the AA sandbox and print its return value."""
    from repro.aa.errors import LuetteError
    from repro.aa.interpreter import Interpreter
    from repro.aa.parser import parse as parse_luette
    from repro.aa.stdlib import make_sandbox_globals
    from repro.aa.values import luette_to_python

    source = args.source
    if source == "-":
        source = sys.stdin.read()
    interpreter = Interpreter(make_sandbox_globals(),
                              instruction_limit=args.budget)
    try:
        value = interpreter.run_chunk(parse_luette(source))
    except LuetteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(repr(luette_to_python(value)))
    print(f"-- {interpreter.instructions_executed} instructions",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="rbay",
        description="RBAY federated information plane (simulated)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_parser()

    p = sub.add_parser("describe", parents=[common],
                       help="build a federation and summarize it")
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("query", parents=[common], help="run one SQL query")
    p.add_argument("sql", help="the query text")
    p.add_argument("--origin", help="customer's home site (default: the first)")
    p.add_argument("--show-counters", action="store_true",
                   help="print memo/protocol counters after the query")
    p.add_argument("--explain", action="store_true",
                   help="print the plan every site will follow (routes, "
                        "probes, steps) before running the query")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("explain", parents=[common],
                       help="show the query plan without running it")
    p.add_argument("sql", help="the query text")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("latency", parents=[common],
                       help="latency-vs-sites sweep (Fig. 10 style)")
    p.add_argument("--origins", nargs="*", default=None,
                   help="origin sites (default: first three)")
    p.add_argument("--queries", type=int, default=10, help="queries per point")
    p.add_argument("--show-counters", action="store_true",
                   help="print memo/protocol counters after the sweep")
    p.set_defaults(fn=cmd_latency)

    p = sub.add_parser("trace", parents=[common],
                       help="trace one query and print its critical-path "
                            "latency breakdown")
    p.add_argument("sql", help="the query text")
    p.add_argument("--origin", help="customer's home site (default: the first)")
    p.add_argument("--json-out", default=None, metavar="PATH",
                   help="also write the raw JSON span export to PATH")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("scale", parents=[common],
                       help="scale benchmark: publish storm + concurrent "
                            "queries")
    p.add_argument("--duration", type=float, default=5_000.0,
                   help="measured window of simulated time (ms)")
    p.add_argument("--queries", type=int, default=96,
                   help="concurrent composite queries in the window")
    p.add_argument("--json-out", default=None, metavar="PATH",
                   help="write the full metrics dict to PATH")
    p.set_defaults(fn=cmd_scale)

    p = sub.add_parser("market", parents=[common],
                       help="elastic marketplace: spot pricing + DEPAS "
                            "auto-scaling (use --no-autoscale for the "
                            "fixed-capacity ablation)")
    p.add_argument("--users", type=int, default=1_048_576,
                   help="synthetic zipf user population")
    p.add_argument("--arrival-rate", type=float, default=30.0,
                   help="base open-loop arrival rate (arrivals/s)")
    p.add_argument("--spike", type=float, default=4.0,
                   help="arrival-rate multiplier inside the spike window")
    p.add_argument("--duration", type=float, default=7_000.0,
                   help="measured window of simulated time (ms)")
    p.add_argument("--no-autoscale", action="store_true",
                   help="freeze per-site capacity (the ablation arm)")
    p.add_argument("--no-reprice", action="store_true",
                   help="pin asking prices at the initial value")
    p.add_argument("--json-out", default=None, metavar="PATH",
                   help="write the full metrics dict to PATH")
    p.set_defaults(fn=cmd_market)

    p = sub.add_parser("check", parents=[common],
                       help="replay a fault schedule under the invariant "
                            "sanitizer and print the violation report")
    p.add_argument("--window", type=float, default=6_000.0,
                   help="chaos window of simulated time (ms)")
    p.add_argument("--quiesce", type=float, default=4_000.0,
                   help="post-chaos convergence window (ms)")
    p.add_argument("--queries", type=int, default=6,
                   help="queries fired during the window")
    p.add_argument("--crash-fraction", type=float, default=0.3,
                   help="fraction of nodes crashed by the randomized "
                        "schedule (ignored with --fault-schedule)")
    p.add_argument("--partitions", type=int, default=1,
                   help="site partitions in the randomized schedule")
    p.add_argument("--drop-prob", type=float, default=0.1,
                   help="ambient drop probability in the randomized schedule")
    p.add_argument("--show-faults", action="store_true",
                   help="print the applied fault-event trace")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("serve", parents=[common],
                       help="serve a partition of the federation as one "
                            "live process (asyncio transport)")
    p.add_argument("--peers", default=None, metavar="PATH",
                   help="JSON peer plan shared by every serve process")
    p.add_argument("--own", nargs="*", default=None, metavar="SITE",
                   help="sites this process serves on real sockets")
    p.add_argument("--duration", type=float, default=10.0,
                   help="wall seconds to keep serving after startup")
    p.add_argument("--settle-ms", type=float, default=2_000.0,
                   help="virtual ms to settle after applying the workload")
    p.add_argument("--query", dest="sql", default=None, metavar="SQL",
                   help="run one query after settling and print RESULT")
    p.add_argument("--origin", default=None,
                   help="origin site for --query (must be owned; "
                        "default: first owned site)")
    p.add_argument("--peer-timeout", type=float, default=30.0,
                   help="seconds to wait for peer processes to bind")
    p.add_argument("--make-peers", action="store_true",
                   help="print a default peer plan for the federation's "
                        "sites and exit")
    p.add_argument("--port-base", type=int, default=42000,
                   help="first port band for --make-peers")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("lua", help="run a Luette chunk in the AA sandbox")
    p.add_argument("source", help="chunk text, or '-' to read stdin")
    p.add_argument("--budget", type=int, default=100_000,
                   help="instruction budget")
    p.set_defaults(fn=cmd_lua)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    finally:
        plane = getattr(args, "_plane", None)
        if plane is not None:
            plane.close()


if __name__ == "__main__":
    raise SystemExit(main())
