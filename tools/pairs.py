#!/usr/bin/env python3
"""Alternating parent/change pairs of one benchmark workload.

A speed claim on this repository is settled by pairs run in one sitting:
the parent and the change each run the same workload for the same
seconds, in turn, with the side that goes first flipping every pair.  A
gain is claimed when the change wins at least nine pairs in ten (ties
count for neither) and the medians differ by more than the parent's
quartile distance.  This tool runs them and does the arithmetic:

* both sides run from temporary trees that :func:`_tree` builds alike:
  a ``src/`` (REV's exported with ``git archive``, as
  ``tools/fingerprint.py --against`` does: nothing fetched, no worktree;
  the change's copied from this tree) next to a copy of *this* tree's
  ``bench/`` and ``BENCHMARK.json``, so only the source differs — not the
  benchmark code, nor where or how the files were laid down;
* every run is ``bench/run.py --workload W --seed N --seconds S --trace T``
  and its last stdout line (one JSON object) is kept;
* it prints, per metric, each side's median and quartiles and the
  change's ratio to the parent, and for the claimed ``--metric`` the wins,
  the median gap and the parent's quartile distance;
* it prints one no-regression verdict per end-to-end metric of
  ``BENCHMARK.json`` (:func:`verdict`; an untraced run reports them
  all): ``ok``, ``worse`` or ``unresolved``;
* it exits 1 if any run failed its output check, any exact metric
  (message counts, bytes, satisfied fraction, simulated latencies,
  executed events) differs between any two runs, either side, or any
  verdict is ``worse``.

Usage, from the repository root::

    python tools/pairs.py --against HEAD~1 --workload query_mix --seconds 20
    python tools/pairs.py --against HEAD~1 --workload market --pairs 6 \\
        --seconds 6 --json pairs-market.json

``make pairs`` runs the first line (``REV``, ``WORKLOAD``, ``PAIRS`` and
``SECONDS`` override).
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from fingerprint import _export

ROOT = Path(__file__).resolve().parent.parent

#: Metrics a behaviour-preserving change must reproduce bit for bit.
EXACT = ("msgs_per_op", "bytes_per_msg", "satisfied_frac",
         "sim_latency_ms_p50", "sim_latency_ms_p90", "sim.events_executed",
         "net.messages_sent", "net.bytes_sent")


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _better(metric: str) -> str:
    """``higher`` or ``lower``, from BENCHMARK.json (``higher`` if unlisted)."""
    declared = _declared()
    for entry in declared["end_to_end"] + declared["per_layer"]:
        if entry["name"] == metric:
            return entry["better"]
    return "higher"


def _tree(into: Path, rev: Optional[str]) -> Path:
    """A run tree at ``into``: REV's ``src/`` (this tree's when REV is
    None) beside copies of this tree's ``bench/`` and ``BENCHMARK.json``."""
    ignore = shutil.ignore_patterns("out", "__pycache__")
    if rev is None:
        shutil.copytree(ROOT / "src", into / "src", ignore=ignore)
    else:
        _export(rev, into)
    shutil.copytree(ROOT / "bench", into / "bench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", into)
    return into


def _run(tree: Path, args: argparse.Namespace) -> dict:
    argv = [sys.executable, str(tree / "bench" / "run.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` (inclusive method; one value is its own)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _exact_errors(runs: List[dict]) -> List[str]:
    errors = [f"run {index} ({run['side']}): correct={run['correct']} "
              f"failed={run['failed']}"
              for index, run in enumerate(runs)
              if not run["correct"] or run["failed"]]
    first = runs[0]
    for index, run in enumerate(runs[1:], 1):
        if run["attempted"] != first["attempted"]:
            errors.append(f"run {index} ({run['side']}): attempted "
                          f"{run['attempted']} != {first['attempted']}")
        for name in EXACT:
            want = first["metrics"].get(name, {}).get("value")
            have = run["metrics"].get(name, {}).get("value")
            if have != want:
                errors.append(f"run {index} ({run['side']}): {name} "
                              f"{have} != {want}")
    return errors


def summarize(pairs: List[Dict[str, dict]], metric: str) -> dict:
    """The claim's statistics for ``metric`` over ``pairs`` (each a
    ``{"parent": run, "change": run}``)."""
    sign = 1 if _better(metric) == "higher" else -1
    parent = [p["parent"]["metrics"][metric]["value"] for p in pairs]
    change = [p["change"]["metrics"][metric]["value"] for p in pairs]
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q_parent, q_change = _quartiles(parent), _quartiles(change)
    gap = sign * (q_change[1] - q_parent[1])
    spread = q_parent[2] - q_parent[0]
    return {"metric": metric, "pairs": len(pairs), "wins": wins,
            "losses": losses, "parent": q_parent, "change": q_change,
            "gap": gap, "parent_quartile_distance": spread,
            "holds": wins * 10 >= 9 * len(pairs) and gap > spread}


def _relative(delta: float, base: float) -> float:
    """``delta`` as a fraction of ``base``; any change from 0 is infinite."""
    if base:
        return delta / abs(base) + 0.0  # no "-0.0 %" for an equal pair
    return 0.0 if delta == 0 else math.copysign(math.inf, delta)


def verdict(pairs: List[Dict[str, dict]], entry: dict) -> dict:
    """The no-regression verdict on one end-to-end metric (``entry`` as
    declared in BENCHMARK.json: ``name``, ``better``, relative ``bound``).

    ``worse`` when the change's median is worse than the parent's by more
    than ``bound`` (a fraction of the parent's median), else ``ok`` —
    unless the parent's own quartile distance exceeds ``bound`` times its
    median and not every change run beats every parent run: then the runs
    spread too widely to tell, and the verdict is ``unresolved``.
    """
    metric, bound = entry["name"], entry["bound"]
    sign = 1 if entry["better"] == "higher" else -1
    parent = [p["parent"]["metrics"][metric]["value"] for p in pairs]
    change = [p["change"]["metrics"][metric]["value"] for p in pairs]
    q_parent, q_change = _quartiles(parent), _quartiles(change)
    worse_by = _relative(sign * (q_parent[1] - q_change[1]), q_parent[1])
    spread = _relative(q_parent[2] - q_parent[0], q_parent[1])
    if sign > 0:
        dominates = min(change) > max(parent)
    else:
        dominates = max(change) < min(parent)
    if spread > bound and not dominates:
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "worse"
    else:
        outcome = "ok"
    return {"metric": metric, "verdict": outcome, "bound": bound,
            "parent": q_parent, "change": q_change, "worse_by": worse_by,
            "parent_spread": spread}


def _table(pairs: List[Dict[str, dict]]) -> None:
    names = sorted(name for name, entry in pairs[0]["parent"]["metrics"].items()
                   if isinstance(entry.get("value"), (int, float))
                   and name not in EXACT)
    print(f"{'metric':34s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'ratio':>7s}")
    for name in names:
        cells = []
        for side in ("parent", "change"):
            q1, median, q3 = _quartiles(
                [p[side]["metrics"][name]["value"] for p in pairs])
            cells.append((median, f"{median:.4g} [{q1:.4g}, {q3:.4g}]"))
        ratio = cells[1][0] / cells[0][0] if cells[0][0] else float("nan")
        print(f"{name:34s} {cells[0][1]:>34s} {cells[1][1]:>34s} {ratio:7.3f}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Alternating parent/change benchmark pairs "
                    "(see the module docstring).")
    parser.add_argument("--against", metavar="REV", required=True,
                        help="the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--metric", default="ops_per_s",
                        help="the claimed metric (default: ops_per_s)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write every run and the summary here")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {"parent": _tree(Path(tmp) / "parent", args.against),
                 "change": _tree(Path(tmp) / "change", None)}
        pairs: List[Dict[str, dict]] = []
        runs: List[dict] = []
        for index in range(args.pairs):
            order = ("change", "parent") if index % 2 else ("parent", "change")
            pair = {}
            for side in order:
                pair[side] = _run(trees[side], args)
                runs.append(dict(pair[side], side=side))
            pairs.append(pair)
            value = {side: pair[side]["metrics"][args.metric]["value"]
                     for side in order}
            print(f"pair {index + 1:2d} ({order[0]} first): parent "
                  f"{value['parent']:.4g}  change {value['change']:.4g}",
                  flush=True)
    _table(pairs)
    summary = summarize(pairs, args.metric)
    q_parent, q_change = summary["parent"], summary["change"]
    print(f"{args.metric} on {args.workload} (seed {args.seed}, "
          f"{args.seconds:g} s, against {args.against}): parent "
          f"{q_parent[1]:.4g} -> change {q_change[1]:.4g} "
          f"({q_change[1] / q_parent[1] - 1:+.1%}); wins "
          f"{summary['wins']}/{summary['pairs']}, losses {summary['losses']}; "
          f"median gap {summary['gap']:.4g} vs parent quartile distance "
          f"{summary['parent_quartile_distance']:.4g}: "
          f"{'gain holds' if summary['holds'] else 'no claimable gain'}")
    # A traced run (``--trace 1``) reports per-layer rows only.
    verdicts = [verdict(pairs, entry) for entry in _declared()["end_to_end"]
                if entry["name"] in pairs[0]["parent"]["metrics"]]
    for v in verdicts:
        print(f"verdict {v['metric']:20s} {v['verdict']:10s} parent "
              f"{v['parent'][1]:.4g} -> change {v['change'][1]:.4g}: worse by "
              f"{v['worse_by']:+.1%} (bound {v['bound']:.0%}), parent spread "
              f"{v['parent_spread']:.1%}")
    errors = _exact_errors(runs)
    errors += [f"{v['metric']} is worse than the parent's beyond its bound"
               for v in verdicts if v["verdict"] == "worse"]
    for error in errors:
        print(f"pairs: FAIL: {error}")
    if not errors:
        print(f"exact metrics identical across all {len(runs)} runs")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"against": args.against, "workload": args.workload,
             "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "pairs": pairs, "summary": summary, "verdicts": verdicts},
            indent=1) + "\n")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
