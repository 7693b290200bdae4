#!/usr/bin/env python3
"""Behaviour fingerprint: one sha256 per scenario of a seeded plane run.

A change that must not move simulated history has to leave every message
sent and every event executed exactly as it was, in the same order.  This
tool runs a fixed matrix of scenarios — seeds × latency jitter ×
{fault-free, randomized crash + partition + message loss}, plus one traced
faulted run, one where query replies are lost and late, and one faulted
run with hot-tree rebalancing (replica promotion, diverted reads) — on a small
federation, with queries admitted through ``RBay.submit`` while the plane
runs and more driven to completion through ``Future.result()`` — and
hashes one record per ``Network.send`` (time, source, destination,
protocol kind, size in bytes), one per executed engine step (its
``(time, seq)``), one per query outcome, the final clock and traffic
counters, and on the traced run every exported span.

Every scenario also runs a second time with ``RBayConfig(wire_check=True)``
— each delivery is a decoded copy, as on a real socket — and the
``copies`` column says whether that run hashed the same (``equal``) or
names the first record where it parted from the plain run.  A difference
there is sim-only shared state: a handler that changed a payload some
other holder still sees.

Each scenario runs, per tree, in its own child process that imports
``repro`` from that tree's ``src/`` with ``PYTHONHASHSEED=0``.  Larger faulted runs have been seen to
send differently under different hash seeds (ROADMAP, "hash-seed-free
sim"); these scenarios hash the same under seeds 0–8, and the pinned seed
keeps a comparison meaningful until that is fixed.  The scenario code is
this file in both cases, so two trees are measured by the same scenarios.

Usage, from the repository root::

    python tools/fingerprint.py                  # hash, check against the pins
    python tools/fingerprint.py --scenario seed11-jitter-faults
    python tools/fingerprint.py --against HEAD   # this tree vs. a commit
    python tools/fingerprint.py --write-pins     # re-pin a deliberate change

Without ``--against`` the hashes are compared with
``benchmarks/results/fingerprints.json``.  With it, the commit's ``src/``
is exported with ``git archive`` into a temporary directory (nothing is
fetched, no worktree is registered), both trees run every selected
scenario, and for each scenario whose hashes differ the tool prints the
first record where the two runs diverge.  The exit status is 1 on any
mismatch, including a ``copies`` column that is not ``equal``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
PINS_PATH = ROOT / "benchmarks" / "results" / "fingerprints.json"
HASH_SEED = "0"

SITES = 4
NODES_PER_SITE = 12
#: Faults (when on) play out over this window, queries arrive inside it.
CHAOS_MS = 6_000.0
QUIESCE_MS = 3_000.0
#: Queries admitted with ``RBay.submit`` at seeded instants of the window.
SUBMITTED = 24
#: Queries run one after another with ``RBay.query`` (``Future.result()``).
DRIVEN = 8


#: Replies the three query retry loops wait on: the size probe's
#: ``agg_value``, the anycast's ``anycast_result``, the remote site's
#: ``site_result``.
REPLY_KINDS = ("direct/scribe/agg_value", "direct/scribe/anycast_result",
               "direct/query/site_result")


class Scenario(NamedTuple):
    seed: int
    jitter: bool
    #: "clean"; "faults" (randomized crash + partition + drop); or
    #: "replyloss" (replies dropped, duplicated, and for a window delayed
    #: past every timeout, so each retry loop retries and some exhaust).
    faults: str
    #: Span tracing on; the exported spans are hashed too.
    traced: bool = False
    #: Hot-tree root replication on (:data:`REBALANCE`), so replica
    #: promotion and diverted reads (``replica_get``, ``anycast_divert``)
    #: run under the faults.
    rebalance: bool = False

    @property
    def name(self) -> str:
        return (f"seed{self.seed}-{'jitter' if self.jitter else 'fixed'}"
                f"-{self.faults}{'-traced' if self.traced else ''}"
                f"{'-rebalance' if self.rebalance else ''}")


SCENARIOS: Dict[str, Scenario] = {
    s.name: s for s in (
        *(Scenario(seed, jitter, faults)
          for seed in (11, 12)
          for jitter in (False, True)
          for faults in ("clean", "faults")),
        Scenario(11, True, "faults", traced=True),
        Scenario(12, True, "replyloss"),
        Scenario(11, True, "faults", rebalance=True),
    )
}

#: The balancer thresholds of the chaos suite's rebalancing runs
#: (``tests/test_chaos_properties.py``) but a hot threshold of 10, not 6:
#: still low enough that this traffic promotes replicas and readers divert
#: to them.  At 6, seed 11's faults leave two nodes each other's parent in
#: a replicated tree and anycast walks circle between them for ever
#: (ROADMAP, "Scribe tree cycles under rebalancing").
REBALANCE = dict(hot_threshold=10, cool_threshold=2, window_ms=500.0,
                 hot_windows=2, cool_windows=4, max_replicas=2,
                 min_children=2)


# ----------------------------------------------------------------------
# One scenario, in the process that imported the tree under test
# ----------------------------------------------------------------------
def _outcome(value) -> str:
    if isinstance(value, BaseException):
        return f"{type(value).__name__}: {value}"
    return repr((value.satisfied, value.degraded, value.retries,
                 value.failed_sites, value.visited_members,
                 value.started_at, value.finished_at,
                 [entry.get("address") for entry in value.entries],
                 sorted(value.tree_sizes.items())))


def run_scenario(scenario: Scenario, emit: Callable[[str], None],
                 wire_check: bool = False) -> None:
    """Run ``scenario`` and ``emit`` one text record per observation;
    ``wire_check`` hands every receiver a decoded copy."""
    from repro.core.plane import RBay, RBayConfig
    from repro.faults import FaultSchedule, MessageRule
    from repro.faults.injector import protocol_kind
    from repro.obs.export import to_json
    from repro.query.errors import QueryError
    from repro.query.options import QueryOptions
    from repro.scribe.rebalance import RebalanceConfig
    from repro.workloads.generator import FederationWorkload, WorkloadSpec

    plane = RBay(RBayConfig(seed=scenario.seed, synthetic_sites=SITES,
                            nodes_per_site=NODES_PER_SITE,
                            jitter=scenario.jitter,
                            maintenance_interval_ms=500.0,
                            reservation_hold_ms=1_000.0,
                            tracing=scenario.traced,
                            wire_check=wire_check,
                            rebalance=(RebalanceConfig(**REBALANCE)
                                       if scenario.rebalance else None)))
    sim, network = plane.sim, plane.network
    sim.set_step_hook(lambda time, seq: emit(f"step {time!r} {seq}"))
    send = network.send

    def logged_send(src, dst_address, msg, *size):
        emit(f"send {sim.now!r} {src.address} {dst_address} "
             f"{protocol_kind(msg)} {msg.size_bytes()}")
        send(src, dst_address, msg, *size)

    network.send = logged_send
    plane.build()
    workload = FederationWorkload(plane, WorkloadSpec()).apply()
    plane.register_buckets("CPU_utilization", 0.0, 100.0, buckets=4)
    sim.run()
    plane.settle(1_000.0)
    plane.context.site_timeout_ms = 1_500.0
    plane.context.probe_timeout_ms = 750.0
    plane.start_maintenance()
    start = sim.now
    sites = [site.name for site in plane.registry]
    if scenario.faults == "faults":
        plane.install_faults(FaultSchedule.randomized(
            random.Random(scenario.seed * 7 + 1), duration_ms=CHAOS_MS,
            node_count=len(plane.nodes), crash_fraction=0.3,
            mean_downtime_ms=1_500.0, site_names=sites, partitions=1,
            mean_partition_ms=1_500.0, drop_prob=0.1, duplicate_prob=0.05,
            extra_delay_ms=3.0).shifted(start))
    elif scenario.faults == "replyloss":
        schedule = FaultSchedule()
        for kind in REPLY_KINDS:
            schedule.rule(MessageRule(name=f"lose {kind}", kind_prefix=kind,
                                      drop_prob=0.35, duplicate_prob=0.2),
                          start, start + CHAOS_MS)
            # Later than the site / anycast timeout (1.5 s), so late
            # replies meet an attempt that has already given up.
            schedule.rule(MessageRule(name=f"delay {kind}", kind_prefix=kind,
                                      extra_delay_ms=1_600.0),
                          start + 0.2 * CHAOS_MS, start + 0.8 * CHAOS_MS)
        plane.install_faults(schedule)

    rng = random.Random(scenario.seed * 13 + 5)

    def next_query():
        site, other = rng.sample(sites, 2)
        shape = rng.randrange(5)
        if shape == 0:
            counts = workload.site_instance_population(site)
            itype = rng.choice(sorted(t for t, n in counts.items() if n))
            sql = f"SELECT 1 FROM {site} WHERE instance_type = '{itype}';"
        elif shape == 1:
            lo = rng.randrange(0, 70)
            sql = (f"SELECT 2 FROM {site}, {other} WHERE CPU_utilization "
                   f"BETWEEN {lo} AND {lo + rng.randrange(5, 30)};")
        elif shape == 2:
            sql = f"SELECT * FROM {site} GROUP BY CPU_utilization;"
        elif shape == 3:
            sql = "SELECT 1 FROM * WHERE CPU_utilization < 10%;"
        else:
            sql = (f"SELECT 1 FROM {site} WHERE instance_type = 'c3.large' "
                   f"OR CPU_utilization < 30%;")
        return sql, QueryOptions(origin=site, payload={"password": "rbay"})

    def submit(index, sql, options):
        emit(f"submit {index} {sim.now!r} {sql}")
        plane.submit(sql, options=options).add_callback(
            lambda value: emit(f"resolved {index} {sim.now!r} "
                               f"{_outcome(value)}"))

    for index in range(SUBMITTED):
        sql, options = next_query()
        sim.schedule_at(start + rng.uniform(0.05, 0.9) * CHAOS_MS,
                        submit, index, sql, options)
    for index in range(DRIVEN):
        plane.settle(CHAOS_MS / (2 * DRIVEN))
        sql, options = next_query()
        emit(f"query {index} {sim.now!r} {sql}")
        try:
            value = plane.query(sql, options=options)
        except QueryError as exc:
            value = exc
        emit(f"answered {index} {sim.now!r} {_outcome(value)}")
    plane.run(until=start + CHAOS_MS + QUIESCE_MS)
    plane.stop_maintenance()
    sim.run()
    emit(f"end {sim.now!r} {sim.events_executed} {network.messages_sent} "
         f"{network.messages_delivered} {network.messages_dropped} "
         f"{network.messages_suppressed} {network.bytes_sent}")
    if scenario.traced:
        for line in to_json(plane.obs.recorder.spans()).splitlines():
            emit(f"span {line}")


def _log_name(name: str, wire_check: bool) -> str:
    return f"{name}{'.wire' if wire_check else ''}.log"


def _worker(name: str, log_dir: Optional[str], wire_check: bool) -> None:
    """Child-process entry: hash scenario ``name`` and print its sha256."""
    import repro

    digest = hashlib.sha256()
    with (open(Path(log_dir) / _log_name(name, wire_check), "w",
               encoding="utf-8")
          if log_dir else nullcontext()) as log:
        def emit(record: str) -> None:
            line = record + "\n"
            digest.update(line.encode("utf-8"))
            if log is not None:
                log.write(line)

        run_scenario(SCENARIOS[name], emit, wire_check)
    print(json.dumps({"repro": repro.__file__, "hash": digest.hexdigest()}))


# ----------------------------------------------------------------------
# Orchestration: one child process per tree and scenario.  Query ids
# come from process-wide counters and land in span labels, so a scenario
# that shared a process would hash differently after another one ran.
# ----------------------------------------------------------------------
def _start(src: Path, name: str, log_dir: Optional[Path] = None,
           wire_check: bool = False) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=HASH_SEED)
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker", name]
    if log_dir is not None:
        argv += ["--log-dir", str(log_dir)]
    if wire_check:
        argv.append("--wire-check")
    return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)


def _finish(child: subprocess.Popen, src: Path) -> str:
    out, _ = child.communicate()
    if child.returncode != 0:
        raise RuntimeError(f"scenario run on {src} failed "
                           f"(exit {child.returncode})")
    document = json.loads(out.splitlines()[-1])
    if not Path(document["repro"]).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"child imported repro from {document['repro']}, "
                           f"not from {src}")
    return document["hash"]


def fingerprints(src: Path, names: Sequence[str]) -> Dict[str, str]:
    """``{scenario: sha256}`` of ``names`` run on the ``repro`` in ``src``."""
    return {name: _finish(_start(src, name), src) for name in names}


def _run_together(runs: Dict[str, tuple]) -> Dict[str, str]:
    """Start every ``label: (src, name, log_dir, wire_check)`` run side by
    side and return ``{label: sha256}``; no child outlives the call."""
    children = {label: _start(*run) for label, run in runs.items()}
    try:
        return {label: _finish(children[label], runs[label][0])
                for label in runs}
    finally:
        for child in children.values():
            if child.poll() is None:
                child.kill()
                child.wait()


def _divergence(log_a: Path, log_b: Path) -> Optional[tuple]:
    with open(log_a, encoding="utf-8") as a, open(log_b, encoding="utf-8") as b:
        return first_divergence((line.rstrip("\n") for line in a),
                                (line.rstrip("\n") for line in b))


def _copies_column(found: Optional[tuple]) -> str:
    """``equal``, or the record at which the ``wire_check`` run parted."""
    return "equal" if found is None else f"record {found[0]}"


def _print_divergence(found: tuple, label_a: str, label_b: str) -> None:
    index, line_a, line_b, tail = found
    print(f"  first divergence at record {index}")
    for line in tail:
        print(f"    {line}")
    print(f"  {label_a}: {line_a}")
    print(f"  {label_b}: {line_b}")


def copies(src: Path, name: str, log_dir: Path) -> tuple:
    """Run ``name`` on ``src`` plain and under ``wire_check``, side by
    side.  Returns ``(plain sha256, None)`` when the two hash the same,
    else ``(plain sha256, first divergence)``."""
    hashes = _run_together({"plain": (src, name, log_dir, False),
                            "wire": (src, name, log_dir, True)})
    if hashes["plain"] == hashes["wire"]:
        return hashes["plain"], None
    return hashes["plain"], _divergence(log_dir / _log_name(name, False),
                                        log_dir / _log_name(name, True))


def load_pins() -> Dict[str, str]:
    return json.loads(PINS_PATH.read_text())["scenarios"]


def first_divergence(a: Iterable[str], b: Iterable[str]) -> Optional[tuple]:
    """``(index, line_a, line_b, common tail)`` of the first record where
    two logs differ (a missing line reads ``None``); None if equal."""
    tail: List[str] = []
    a, b = iter(a), iter(b)
    index = 0
    while True:
        line_a, line_b = next(a, None), next(b, None)
        if line_a != line_b:
            return index, line_a, line_b, tail
        if line_a is None:
            return None
        tail = (tail + [line_a])[-3:]
        index += 1


def _export(rev: str, into: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "--", "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return into / "src"


def _against(rev: str, names: Sequence[str]) -> int:
    status = 0
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as tmp:
        tmp_path = Path(tmp)
        mine, theirs = ROOT / "src", _export(rev, tmp_path / "rev")
        logs = {label: tmp_path / label for label in ("mine", "theirs")}
        for log_dir in logs.values():
            log_dir.mkdir()
        for name in names:
            # The two trees (and this tree's copies run) side by side,
            # one scenario at a time.
            hashes = _run_together({
                "mine": (mine, name, logs["mine"], False),
                "wire": (mine, name, logs["mine"], True),
                "theirs": (theirs, name, logs["theirs"], False)})
            log = logs["mine"] / _log_name(name, False)
            moved = copied = None
            if hashes["mine"] != hashes["theirs"]:
                moved = _divergence(log,
                                    logs["theirs"] / _log_name(name, False))
            if hashes["mine"] != hashes["wire"]:
                copied = _divergence(log, logs["mine"] / _log_name(name, True))
            print(f"{name:30s} {hashes['mine']}  "
                  f"{'same' if moved is None else 'DIFFERS':8s}"
                  f"copies: {_copies_column(copied)}")
            if moved is not None:
                status = 1
                _print_divergence(moved, "this tree", rev)
            if copied is not None:
                status = 1
                _print_divergence(copied, "plain", "wire_check")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Hash every send and engine step of a fixed scenario "
                    "matrix (see the module docstring).")
    parser.add_argument("--scenario", action="append", choices=sorted(SCENARIOS),
                        help="run only this scenario (repeatable)")
    parser.add_argument("--against", metavar="REV",
                        help="compare this tree with commit REV, record for record")
    parser.add_argument("--write-pins", action="store_true",
                        help=f"store the hashes in {PINS_PATH.relative_to(ROOT)}")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--log-dir", help=argparse.SUPPRESS)
    parser.add_argument("--wire-check", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.worker, args.log_dir, args.wire_check)
        return 0
    names = args.scenario or list(SCENARIOS)
    if args.against:
        return _against(args.against, names)
    hashes, diverged = {}, {}
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as tmp:
        for name in names:
            hashes[name], diverged[name] = copies(ROOT / "src", name, Path(tmp))
    pins = load_pins() if PINS_PATH.exists() else {}
    if args.write_pins:
        pins.update(hashes)
        PINS_PATH.write_text(json.dumps(
            {"hash_seed": int(HASH_SEED), "scenarios": dict(sorted(pins.items()))},
            indent=2) + "\n")
        print(f"pinned {len(hashes)} scenarios in {PINS_PATH.relative_to(ROOT)}")
    moved = [name for name in names if pins.get(name) not in (None, hashes[name])]
    for name in names:
        verdict = ("unpinned" if name not in pins
                   else "MOVED" if name in moved else "pinned")
        print(f"{name:30s} {hashes[name]}  {verdict:8s} "
              f"copies: {_copies_column(diverged[name])}")
        if diverged[name] is not None:
            _print_divergence(diverged[name], "plain", "wire_check")
    return 1 if moved or any(diverged.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
