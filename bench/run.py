#!/usr/bin/env python3
"""The RBAY benchmark: four pinned workloads, end to end and layer by layer.

Three ways in (README.md has the glossary):

* ``python3 bench/run.py [--seed 2017] [--out DIR]`` — every workload, each
  in its own sequential subprocess, untraced then traced; prints every
  metric by name with its unit, writes ``DIR/result-<seed>.json``, exits
  non-zero if an output check or a pinned signature fails;
* ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1`` —
  one workload in this process; the last line of stdout is one JSON
  object (``correct``, ``attempted``, ``failed``, ``metrics``) holding the
  end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``);
* ``python3 bench/run.py --compare A.json B.json`` — two result files,
  metric by metric against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from harness import Measurement, Rep, percentile  # noqa: E402

PINNED_SEED = 2017
EXPECTED_PATH = BENCH_DIR / "expected.json"
#: The live arm's traffic moves when a host stall trips a protocol
#: timeout, so its pins carry the metric's bound as a tolerance.
HOST_DEPENDENT = {"live_queries": {"msgs_per_op": 0.01, "bytes_per_msg": 0.01}}


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------
def _profiles(quick: bool) -> Dict[str, Tuple[Any, Callable[..., Rep]]]:
    """Workload name → (spec, one-repetition function)."""
    import workloads as w

    specs: Dict[str, Any] = {
        "publish_storm": w.PublishStormSpec(),
        "query_mix": w.QueryMixSpec(),
        "market": w.MarketSpec(),
        "live_queries": w.LiveQueriesSpec(),
    }
    if quick:
        specs = {
            "publish_storm": replace(specs["publish_storm"], sites=4, nodes_per_site=8,
                                     window_ms=1_000.0, queries=16, query_burst=8),
            "query_mix": replace(specs["query_mix"], nodes_per_site=4, queries=40,
                                 warmup_queries=4),
            "market": replace(specs["market"], sites=4, nodes_per_site=6, users=4_096,
                              window_ms=2_000.0, spike_start_ms=500.0, spike_ms=800.0),
            "live_queries": replace(specs["live_queries"], sites=2, queries=30,
                                    warmup_queries=3),
        }
    return {
        "publish_storm": (specs["publish_storm"], w.run_publish_storm),
        "query_mix": (specs["query_mix"], w.run_query_mix),
        "market": (specs["market"], w.run_market),
        "live_queries": (specs["live_queries"],
                         lambda spec, seed, *trace:
                         w.run_live_arm(spec, seed, "asyncio", *trace)),
    }


def _live_oracle(spec: Any, seed: int, reps: List[Rep]) -> Tuple[Rep, List[str]]:
    """The same queries on the sim transport: the rows every live
    repetition must have returned, and the exact simulated latencies."""
    import checks
    import workloads as w

    oracle = w.run_live_arm(spec, seed, "sim")
    errors = list(oracle.errors)
    for rep in reps:
        errors += checks.check_same_rows(rep.rows, oracle.rows)
    return oracle, errors


def _end_to_end(m: Measurement, oracle: Optional[Rep]) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of one untraced measurement."""
    reps = m.reps
    ops = reps[0].attempted
    exact = dict(reps[0].exact)
    if oracle is not None:
        # Live: traffic from the repetition no stall disturbed, simulated
        # latency from the oracle arm (the live clock is the wall clock).
        calm = min(reps, key=lambda r: r.host["msgs_per_op"])
        exact.update(msgs_per_op=calm.host["msgs_per_op"],
                     bytes_per_msg=calm.host["bytes_per_msg"],
                     sim_latency_ms_p50=oracle.host["sim_latency_ms_p50"],
                     sim_latency_ms_p90=oracle.host["sim_latency_ms_p90"])
    scale = m.scale
    out = {
        "setup_s": {"value": m.setup_s, "raw": [r.setup_s * scale for r in reps]},
        "ops_per_s": {"value": ops / sum(m.minima),
                      "raw": [ops / (total * scale) for total in m.totals]},
        "peak_rss_mb": {"value": harness.peak_rss_mb()},
    }
    out.update({name: {"value": value} for name, value in exact.items()})
    for q in (50, 90):
        out[f"sim_latency_ms_p{q}"]["samples"] = (oracle or reps[0]).latency_samples
    return out


def _per_layer(untraced: Rep, traced: Rep, tracer: Any, oracle: Optional[Rep],
               micro_metrics: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    counts = dict(traced.counts)
    calls, census = tracer.calls, tracer.census
    routes = calls["pastry.route"]
    publishes = calls["scribe.set_local"]
    reserves = calls["core.try_reserve"]
    # One repetition, so no minima to take: plain host seconds.
    untraced_wall = sum(untraced.slices)
    out = dict(micro_metrics)
    out.update(counts)
    del out["pastry.routes_forwarded"]
    out.update(tracer.shares())
    out.update({
        "sim.wall_s_per_sim_s": untraced_wall / (untraced.sim_ms / 1e3),
        "pastry.route_calls": routes,
        "pastry.hops_per_route": counts["pastry.routes_forwarded"] / routes if routes else 0.0,
        "scribe.set_local_calls": publishes,
        "scribe.rollup_msgs_per_publish": (
            (census["scribe.agg_push"] + census["scribe.agg_push_batch"]) / publishes
            if publishes else 0.0),
        "scribe.multicast_msgs": census["scribe.mcast"] + census["scribe.mcast_down"],
        "aa.invocations": calls["aa.invoke"],
        "core.reservation_ops": sum(calls[f"core.{op}"] for op in (
            "try_reserve", "commit", "release", "release_uncommitted")),
        "core.reserve_conflict_ratio": (
            tracer.refused["core.try_reserve"] / reserves if reserves else 0.0),
        "transport.live_msgs_per_s": (
            counts["net.messages_sent"] / untraced_wall if oracle is not None else 0.0),
        "transport.live_over_sim_wall_ratio": (
            untraced_wall / sum(oracle.slices) if oracle is not None else 0.0),
        "bench.slice_wall_ms_p50": percentile(untraced.slices, 50) * 1e3,
        "bench.slice_wall_ms_p90": percentile(untraced.slices, 90) * 1e3,
        "bench.trace_overhead_ratio": sum(traced.slices) / untraced_wall,
        "bench.trace_unwrapped": len(tracer.unwrapped),
    })
    out.setdefault("ext.reprice_events", 0)
    out.setdefault("ext.scale_events", 0)
    return out


def _check_pins(name: str, seed: int, signature: str,
                exact: Dict[str, float]) -> List[str]:
    """Default-seed runs of the full profile must reproduce ``expected.json``
    (a traced run passes no ``exact``: its signature alone is checked)."""
    if seed != PINNED_SEED or not EXPECTED_PATH.exists():
        return []
    pinned = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))["workloads"].get(name)
    if pinned is None:
        return [f"no pins for {name} in {EXPECTED_PATH.name}"]
    errors = []
    if pinned["signature"] != signature:
        errors.append(f"signature {signature[:12]} differs from the pinned "
                      f"{pinned['signature'][:12]}")
    tolerances = HOST_DEPENDENT.get(name, {})
    for metric_name, want in pinned["exact"].items() if exact else ():
        have = exact.get(metric_name)
        if have is None or not math.isclose(
                have, want, rel_tol=tolerances.get(metric_name, 0.0), abs_tol=0.0):
            errors.append(f"{metric_name} = {have!r}, pinned {want!r}")
    return errors


def _meta(seed: int, seconds: float, quick: bool, m: Measurement) -> Dict[str, Any]:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "git_sha": sha, "python": platform.python_version(),
        "nproc": os.cpu_count(), "seed": seed, "seconds": seconds,
        "profile": "quick" if quick else "full",
        "reps": len(m.reps), "slices": len(m.reps[0].slices),
        "rep_totals_s": m.totals,
        "calibrated_s_per_host_s": m.scale,
        "calibration_chunk_s": harness.summarize(
            [c for rep in m.reps for c in rep.calibration]),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool,
                 out_dir: Path, pinned: bool = True) -> Dict[str, Any]:
    """Measure one workload here; returns its result document, which is
    also written to ``out_dir``.  ``pinned`` is off only while the pins
    themselves are being rewritten."""
    contract = load_contract()
    spec, run_rep = _profiles(quick)[name]
    errors: List[str] = []
    if trace:
        import micro
        from layers import Tracer

        m = Measurement([run_rep(spec, seed)])
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rep(spec, seed, tracer)
        finally:
            tracer.remove()
        if traced.signature != m.reps[0].signature:
            errors.append("traced signature differs from the untraced one: "
                          "the wrappers changed behaviour")
        checked = m.reps + [traced]
    else:
        m = harness.measure(lambda: run_rep(spec, seed), seconds)
        errors += m.replay_errors()
        checked = m.reps
    for rep in checked:
        errors += rep.errors
    oracle = None
    if name == "live_queries":
        oracle, oracle_errors = _live_oracle(spec, seed, checked)
        errors += oracle_errors

    out_dir.mkdir(parents=True, exist_ok=True)
    first = m.reps[0]
    if trace:
        tracer.dump(str(out_dir / f"spans-{name}.jsonl"))
        values = _per_layer(first, traced, tracer, oracle, micro.run_all(
            micro.QUICK if quick else micro.MicroSpec(), seed))
        metrics = {key: {"value": value} for key, value in values.items()}
        declared = contract["per_layer"]
        exact = {}
    else:
        metrics = _end_to_end(m, oracle)
        declared = contract["end_to_end"]
        exact = {key: entry["value"] for key, entry in metrics.items()}
    if pinned and not quick:
        errors += _check_pins(name, seed, first.signature, exact)

    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(units) != set(metrics):
        errors.append(f"metrics differ from BENCHMARK.json: missing "
                      f"{sorted(set(units) - set(metrics))}, undeclared "
                      f"{sorted(set(metrics) - set(units))}")
    for metric_name, entry in metrics.items():
        entry["unit"] = units.get(metric_name, "")
        if not math.isfinite(entry["value"]):
            errors.append(f"{metric_name} is not finite")
    doc = {
        "workload": name, "trace": int(trace), "meta": _meta(seed, seconds, quick, m),
        "correct": not errors, "errors": errors,
        "attempted": first.attempted, "failed": max(r.failed for r in m.reps),
        "signature": first.signature, "metrics": metrics,
    }
    _doc_path(out_dir, name, trace).write_text(
        json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return doc


def _doc_path(out_dir: Path, name: str, trace: int) -> Path:
    return out_dir / f"{name}-trace{int(trace)}.json"


def _contract_line(doc: Dict[str, Any]) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    return json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in doc["metrics"].items()},
    })


# ----------------------------------------------------------------------
# Every workload, each in its own subprocess
# ----------------------------------------------------------------------
def run_all(seed: int, seconds: float, quick: bool, out_dir: Path,
            update_expected: bool) -> int:
    contract = load_contract()
    result: Dict[str, Any] = {"workloads": {}}
    failures = 0
    for workload in (entry["name"] for entry in contract["workloads"]):
        docs = {}
        for trace in (0, 1):
            doc_path = _doc_path(out_dir, workload, trace)
            doc_path.unlink(missing_ok=True)
            command = [sys.executable, str(BENCH_DIR / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace),
                       "--out", str(out_dir)]
            if quick:
                command.append("--quick")
            if update_expected:
                command.append("--update-expected")
            done = subprocess.run(command, stdout=subprocess.DEVNULL)
            if done.returncode != 0 or not doc_path.exists():
                print(f"{workload} --trace {trace}: exited {done.returncode}")
                failures += 1
                continue
            docs[trace] = json.loads(doc_path.read_text(encoding="utf-8"))
        if len(docs) < 2:
            continue
        result["workloads"][workload] = {
            "meta": docs[0]["meta"], "signature": docs[0]["signature"],
            "attempted": docs[0]["attempted"], "failed": docs[0]["failed"],
            "end_to_end": docs[0]["metrics"], "per_layer": docs[1]["metrics"],
        }
        for doc in docs.values():
            if not doc["correct"]:
                failures += 1
                for error in doc["errors"]:
                    print(f"{workload} --trace {doc['trace']}: {error}")
    _print_tables(contract, result)
    path = out_dir / f"result-{seed}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"\nresults written to {path}")
    if update_expected and not failures:
        _write_expected(seed, result)
    return 1 if failures else 0


def _write_expected(seed: int, result: Dict[str, Any]) -> None:
    pins = {}
    for name, entry in result["workloads"].items():
        pins[name] = {
            "signature": entry["signature"],
            "exact": {metric: entry["end_to_end"][metric]["value"] for metric in (
                "msgs_per_op", "bytes_per_msg", "satisfied_frac",
                "sim_latency_ms_p50", "sim_latency_ms_p90")},
        }
    EXPECTED_PATH.write_text(json.dumps(
        {"seed": seed, "workloads": pins}, indent=1) + "\n", encoding="utf-8")
    print(f"pins written to {EXPECTED_PATH}")


def _format(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.1f}"


def _print_tables(contract: Dict[str, Any], result: Dict[str, Any]) -> None:
    names = list(result["workloads"])
    for title, key in (("End to end", "end_to_end"), ("Per layer", "per_layer")):
        print(f"\n{title}")
        print(f"{'metric':40s} {'unit':8s} " + " ".join(f"{n:>14s}" for n in names))
        for entry in contract[key]:
            cells = []
            for name in names:
                metric = result["workloads"][name][key].get(entry["name"])
                cells.append(f"{_format(metric['value']):>14s}" if metric else f"{'-':>14s}")
            print(f"{entry['name']:40s} {entry['unit']:8s} " + " ".join(cells))
    print(f"\n{'failed / attempted':49s} " + " ".join(
        f"{w['failed']:>6d}/{w['attempted']:<7d}" for w in result["workloads"].values()))


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """B against A, per workload × end-to-end metric; non-zero on ``worse``."""
    contract = load_contract()
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))["workloads"]
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))["workloads"]
    worse = 0
    print(f"{'workload':14s} {'metric':20s} {'A':>12s} {'B':>12s} "
          f"{'B vs A':>8s} {'bound':>6s}  status")
    for workload in (entry["name"] for entry in contract["workloads"]):
        if workload not in a or workload not in b:
            print(f"{workload:14s} missing from one file")
            worse += 1
            continue
        for entry in contract["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            ma, mb = a[workload]["end_to_end"][name], b[workload]["end_to_end"][name]
            va, vb = ma["value"], mb["value"]
            change = (vb - va) / abs(va) if va else 0.0
            loss = -change if entry["better"] == "higher" else change
            spread = max(harness.quartile_spread(m.get("raw", ())) for m in (ma, mb))
            if loss > bound:
                status = "worse"
                worse += 1
            elif spread > bound:
                status = f"unresolved (repetitions spread {spread:.0%})"
            else:
                status = "ok"
            print(f"{workload:14s} {name:20s} {_format(va):>12s} {_format(vb):>12s} "
                  f"{change:>+8.1%} {bound:>6.0%}  {status}")
        fa, fb = (x[workload]["failed"] / x[workload]["attempted"] for x in (a, b))
        status = "worse" if fb > fa else "ok"
        worse += status == "worse"
        print(f"{workload:14s} {'failed_ops_frac':20s} {fa:>12.4f} {fb:>12.4f} "
              f"{'':>8s} {'':>6s}  {status}")
    return 1 if worse else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds that buy repetitions "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out")
    parser.add_argument("--quick", action="store_true",
                        help="tiny specs, two repetitions (the test profile)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite expected.json from this run instead of checking it")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.update_expected and (args.quick or args.seed != PINNED_SEED):
        parser.error("--update-expected pins the full profile at the default seed")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro beside {BENCH_DIR.name}/: nothing to measure",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.quick else float(load_contract()["run_seconds"])
    if args.workload is None:
        return run_all(args.seed, seconds, args.quick, args.out, args.update_expected)
    doc = run_workload(args.workload, args.seed, seconds, bool(args.trace),
                       args.quick, args.out, pinned=not args.update_expected)
    for error in doc["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(_contract_line(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
