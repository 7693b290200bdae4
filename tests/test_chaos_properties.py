"""Chaos property suite: plane-wide invariants under injected faults.

Each scenario builds a small federation, runs a randomized (but seeded,
fully reproducible) fault schedule — crashes with recovery, a partition,
ambient message loss — while customers keep querying, then quiesces and
asserts the invariants the failure model promises:

* every query completes with a :class:`QueryResult` or a typed
  :class:`QueryError` — never a raw ``FutureTimeout``;
* no reservation outlives its query: every committed lease belongs to a
  query whose caller saw a satisfied result;
* after faults heal and maintenance quiesces, tree aggregates equal
  ground truth (the trees reconverge);
* the network conservation identity ``sent == delivered + dropped``
  holds once traffic drains;
* identical seeds reproduce the run byte-for-byte;
* a message is a copy: each seed runs the same with every delivery a
  decoded copy (``wire_check=True``) as with shared payloads.

Seed count comes from ``RBAY_CHAOS_SEEDS`` (default 20); the coverage
gate sets it low to keep the tracer fast.  The copy check runs every
seed when ``RBAY_CHAOS_SEEDS`` is set (``make chaos``) and every fourth
of them otherwise.
"""

import dataclasses
import hashlib
import os
import random

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.faults import FaultSchedule
from repro.query.errors import QueryError
from repro.query.executor import QueryResult
from repro.scribe.rebalance import RebalanceConfig
from repro.sim.futures import FutureTimeout
from repro.workloads.generator import FederationWorkload, WorkloadSpec

SEED_COUNT = int(os.environ.get("RBAY_CHAOS_SEEDS", "20"))
SEEDS = list(range(100, 100 + SEED_COUNT))
WIRE_SEEDS = SEEDS if "RBAY_CHAOS_SEEDS" in os.environ else SEEDS[::4]

CHAOS_MS = 6_000.0
QUIESCE_MS = 4_000.0


def run_chaos(seed, crash_fraction=0.3, drop_prob=0.1, partitions=1,
              queries=6, sanitize=True, rebalance=False, wire_check=False):
    """One chaos scenario; returns everything the invariants inspect.

    The runtime invariant sanitizer rides along by default — its checks
    are purely observational, so the determinism fingerprint is
    unaffected — and the invariant test asserts its report stays empty.

    ``rebalance=True`` turns on hot-tree root replication with thresholds
    low enough that ordinary chaos traffic triggers promotions, running
    the replica protocol through the same crash/partition schedules.

    ``wire_check=True`` delivers every message as a decoded copy of its
    encoded frame (``RBayConfig.wire_check``).
    """
    plane = RBay(RBayConfig(
        seed=seed,
        synthetic_sites=4,
        nodes_per_site=5,
        jitter=False,
        maintenance_interval_ms=500.0,
        reservation_hold_ms=1_000.0,
        sanitize=sanitize,
        # Chaos runs execute only a few thousand events (delivery
        # coalescing), so sweep well below the default cadence.
        sanitize_sweep_events=250,
        wire_check=wire_check,
        rebalance=RebalanceConfig(
            hot_threshold=6,
            cool_threshold=2,
            window_ms=500.0,
            hot_windows=2,
            cool_windows=4,
            max_replicas=2,
            min_children=2,
        ) if rebalance else None,
    )).build()
    workload = FederationWorkload(plane, WorkloadSpec(
        gate_policies=False, utilization_thresholds=())).apply()
    # Bucketed range index rides along: every node gets a seeded
    # utilization value and joins its value-range bucket tree, so range
    # and GROUP BY queries run under the same fault schedules.
    urng = random.Random(seed * 17 + 3)
    for node in plane.nodes:
        node.define_attribute("CPU_utilization", urng.uniform(0.0, 100.0))
    plane.register_buckets("CPU_utilization", 0.0, 100.0, 4)
    plane.sim.run()
    plane.settle(1_000.0)
    # Tight protocol timeouts keep the simulated runs short.
    plane.context.site_timeout_ms = 1_500.0
    plane.context.probe_timeout_ms = 750.0
    plane.start_maintenance()

    schedule = FaultSchedule.randomized(
        random.Random(seed * 7 + 1),
        duration_ms=CHAOS_MS,
        node_count=len(plane.nodes),
        crash_fraction=crash_fraction,
        mean_downtime_ms=1_500.0,
        site_names=[s.name for s in plane.registry],
        partitions=partitions,
        mean_partition_ms=2_000.0,
        drop_prob=drop_prob,
    ).shifted(plane.sim.now)
    injector = plane.install_faults(schedule)

    # Customers keep querying while the faults play out.
    rng = random.Random(seed * 13 + 5)
    site_names = [s.name for s in plane.registry]
    futures = []
    for i in range(queries):
        site = rng.choice(site_names)
        counts = workload.site_instance_population(site)
        populated = sorted(t for t, n in counts.items() if n > 0)
        itype = rng.choice(populated)
        customer = plane.make_customer(f"chaos-{seed}-{i}", site)
        kind = i % 3
        if kind == 1:
            lo = rng.uniform(0.0, 70.0)
            hi = lo + rng.uniform(5.0, 30.0)
            sql = (f"SELECT 1 FROM {site} WHERE CPU_utilization "
                   f"BETWEEN {lo:g} AND {hi:g};")
        elif kind == 2:
            sql = f"SELECT * FROM {site} GROUP BY CPU_utilization;"
        else:
            sql = f"SELECT 1 FROM {site} WHERE instance_type = '{itype}';"
        at = plane.sim.now + rng.uniform(0.1, 0.9) * CHAOS_MS

        def fire(customer=customer, sql=sql):
            futures.append(customer.query_once(sql, timeout=8_000.0))

        plane.sim.schedule_at(at, fire)

    plane.run(until=plane.sim.now + CHAOS_MS + QUIESCE_MS)
    plane.stop_maintenance()
    plane.sim.run()  # drain every in-flight message and timer
    return plane, workload, injector, futures


def popular_type(workload, site):
    counts = workload.site_instance_population(site)
    return max(counts, key=counts.get)


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_invariants(seed):
    plane, workload, injector, futures = run_chaos(seed)

    # The schedule healed itself: every crashed node is back.
    assert not injector.crashed
    assert not injector.partitions

    # 1. Every query completed cleanly (typed result, never FutureTimeout).
    assert futures, "no queries fired"
    satisfied_ids = set()
    for future in futures:
        assert future.resolved
        value = future.value
        assert not isinstance(value, FutureTimeout)
        assert isinstance(value, (QueryResult, QueryError))
        if isinstance(value, QueryResult):
            assert value.degraded == bool(value.failed_sites)
            assert set(value.sites_queried) == (set(value.sites_answered)
                                                | set(value.failed_sites))
            if value.satisfied:
                satisfied_ids.add(value.query_id)

    # 2. No leaked reservations: a committed lease must belong to a query
    # whose caller actually got a satisfied answer; uncommitted holds must
    # all have lapsed during quiesce.
    for node in plane.nodes:
        table = node.reservation
        holder = table.holder()
        if holder is None:
            continue
        assert table.committed, (
            f"node {node.address} still holds uncommitted query {holder}")
        assert holder in satisfied_ids, (
            f"node {node.address} leased to unsatisfied query {holder}")

    # 3. Network conservation after drain.
    net = plane.network
    assert net.messages_in_flight == 0
    assert net.messages_sent == net.messages_delivered + net.messages_dropped

    # 4. Aggregates reconverged to ground truth at every site.
    from repro.core.naming import instance_tree

    for site in [s.name for s in plane.registry]:
        itype = popular_type(workload, site)
        expected = workload.site_instance_population(site)[itype]
        via = plane.site_nodes(site)[0]
        got = plane.tree_size(instance_tree(site, itype), via=via)
        assert got == expected, (
            f"{site}/{itype}: tree says {got}, ground truth {expected}")

    # 4b. Bucket trees reconverged too: after the faults heal, each
    # site's per-bucket membership equals ground truth over the raw
    # attribute values (crashed nodes re-bucketed on recovery).
    from repro.core.naming import site_tree

    spec = plane.context.bucket_index.spec_for("CPU_utilization")
    for site in [s.name for s in plane.registry]:
        nodes = plane.site_nodes(site)
        via = nodes[0]
        for bucket in spec.buckets:
            expected = sum(
                1 for n in nodes
                if n.has_attribute("CPU_utilization")
                and bucket.contains(n.attribute_value("CPU_utilization")))
            got = plane.tree_size(site_tree(site, bucket.tree), via=via)
            assert got == expected, (
                f"{site}/{bucket.tree}: tree says {got}, "
                f"ground truth {expected}")

    # 5. The runtime sanitizer, watching throughout (periodic sweeps,
    # post-query, post-fault, and the final quiescent check), saw nothing.
    report = plane.sanitizer.report
    assert report.ok, report.format()
    assert report.quiescent_checks > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_invariants_with_rebalancing(seed):
    """The full chaos schedule with hot-tree replication switched on: the
    replica protocol must survive crashes/partitions with the sanitizer
    (which now watches replica-set agreement, child partitioning, and
    snapshot coherence) clean, and aggregates must still equal ground
    truth once the faults heal."""
    plane, workload, injector, futures = run_chaos(seed, rebalance=True)

    assert not injector.crashed
    assert not injector.partitions

    # Typed completion, exactly as in the rebalance-off suite.
    assert futures, "no queries fired"
    for future in futures:
        assert future.resolved
        assert not isinstance(future.value, FutureTimeout)
        assert isinstance(future.value, (QueryResult, QueryError))

    # Aggregates equal ground truth through promote/demote churn.
    from repro.core.naming import instance_tree, site_tree

    for site in [s.name for s in plane.registry]:
        itype = popular_type(workload, site)
        expected = workload.site_instance_population(site)[itype]
        via = plane.site_nodes(site)[0]
        got = plane.tree_size(instance_tree(site, itype), via=via)
        assert got == expected, (
            f"{site}/{itype}: tree says {got}, ground truth {expected}")

    spec = plane.context.bucket_index.spec_for("CPU_utilization")
    for site in [s.name for s in plane.registry]:
        nodes = plane.site_nodes(site)
        via = nodes[0]
        for bucket in spec.buckets:
            expected = sum(
                1 for n in nodes
                if n.has_attribute("CPU_utilization")
                and bucket.contains(n.attribute_value("CPU_utilization")))
            got = plane.tree_size(site_tree(site, bucket.tree), via=via)
            assert got == expected, (
                f"{site}/{bucket.tree}: tree says {got}, "
                f"ground truth {expected}")

    # The sanitizer — including the three replica invariants — is clean.
    report = plane.sanitizer.report
    assert report.ok, report.format()
    assert report.quiescent_checks > 0

    # No replica roles left dangling after the final drain: every surviving
    # replica set is mutually acknowledged.
    for node in plane.nodes:
        for topic, state in node.scribe.topics().items():
            for addr in state.replicas:
                assert addr in state.children, (
                    f"{topic}: replica {addr} at {node.address} "
                    f"is not a child")


def test_rebalancing_chaos_run_is_deterministic():
    """Same seed with rebalancing on: byte-identical decisions and trace."""
    def fingerprint(seed):
        plane, _, injector, futures = run_chaos(seed, rebalance=True)
        promotions = sum(
            n.scribe.rebalancer.promotions for n in plane.nodes)
        demotions = sum(
            n.scribe.rebalancer.demotions for n in plane.nodes)
        outcomes = [
            (f.value.satisfied, f.value.degraded, f.value.retries,
             sorted(f.value.tree_sizes.items()))
            if isinstance(f.value, QueryResult) else repr(f.value)
            for f in futures
        ]
        return (injector.trace_text(), plane.counters.snapshot(),
                plane.network.messages_sent, promotions, demotions, outcomes)

    assert fingerprint(SEEDS[0]) == fingerprint(SEEDS[0])


def test_chaos_run_is_deterministic():
    """Same seed, same schedule: byte-identical trace and counters."""
    def fingerprint(seed):
        plane, _, injector, futures = run_chaos(seed)
        # Query ids come from a process-global counter, so fingerprints
        # compare per-query outcomes positionally instead.
        outcomes = [
            (f.value.satisfied, f.value.degraded, f.value.retries,
             sorted(f.value.tree_sizes.items()))
            if isinstance(f.value, QueryResult) else repr(f.value)
            for f in futures
        ]
        return (injector.trace_text(), plane.counters.snapshot(),
                plane.network.messages_sent, outcomes)

    assert fingerprint(SEEDS[0]) == fingerprint(SEEDS[0])


def test_retries_spent_under_loss_are_counted():
    """Ambient loss must exercise the retry paths, not just timeouts."""
    plane, _, _, futures = run_chaos(SEEDS[0], drop_prob=0.25)
    retried = plane.counters.get("query.retry.site") \
        + plane.counters.get("query.retry.probe") \
        + plane.counters.get("query.retry.anycast")
    assert retried > 0
    assert all(f.resolved for f in futures)


def chaos_digest(seed, rebalance, wire_check):
    """sha256 over one chaos run's query outcomes, network counters and
    final clock (query ids are process-wide, so results hash without)."""
    plane, _, _, futures = run_chaos(seed, rebalance=rebalance,
                                     wire_check=wire_check)
    outcomes = [
        repr(dataclasses.replace(f.value, query_id=0))
        if isinstance(f.value, QueryResult) else type(f.value).__name__
        for f in futures
    ]
    net = plane.network
    counters = (net.messages_sent, net.messages_delivered,
                net.messages_dropped, net.messages_suppressed, net.bytes_sent)
    record = repr((outcomes, counters, plane.sim.now))
    return hashlib.sha256(record.encode()).hexdigest()


@pytest.mark.parametrize("rebalance", [False, True], ids=["plain", "rebalance"])
@pytest.mark.parametrize("seed", WIRE_SEEDS)
def test_chaos_run_is_the_same_when_every_message_is_a_copy(seed, rebalance):
    """A message is a copy: no handler mutates a payload another holder
    still sees, so decoding every delivery from its frame changes nothing."""
    assert (chaos_digest(seed, rebalance, wire_check=True)
            == chaos_digest(seed, rebalance, wire_check=False))
