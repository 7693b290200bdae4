"""Coherence proof for the subtree-accumulator memo (``TopicState.acc_memo``).

The memo's claim is *exactness*: a memoized subtree accumulator, dropped
on every input mutation, is always bit-identical to a from-scratch
recomputation — no matter how
member updates, joins, leaves, and node failures interleave.  This suite
drives a seeded random interleaving of those operations (200 checkpoints
by default; override with ``RBAY_COHERENCE_CHECKS``) and, at every
checkpoint, compares

* the root's answer for every aggregate function (served through the
  memoized ``_own_acc`` path) against a pure-Python model of the member
  population, **exactly** (``==``, not approx — member values are small
  integers so float arithmetic is exact), and
* each node's memoized accumulator against an uncached recomputation
  (``_compute_own_acc``).

Aggregate contributions are deliberately heterogeneous per function so
that some functions are carried by exactly one member at times — the
regime where a missed invalidation (e.g. on ``leave``) turns into a
visibly stale parent.
"""

import os
import random

from repro.net.latency import UniformLatencyModel
from repro.net.network import Network
from repro.net.site import SiteRegistry
from repro.obs.metrics import MetricsRegistry
from repro.pastry.overlay import Overlay
from repro.scribe.aggregate import make_aggregate
from repro.scribe.scribe import ScribeApplication
from repro.scribe.topic import topic_id
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams

N_NODES = 20
N_CHECKS = int(os.environ.get("RBAY_COHERENCE_CHECKS", "200"))
MAX_FAILURES = 4
TOPIC = "coherence"
SEED = 20_170_807

#: Which member indices contribute to which aggregate — heterogeneous so
#: leaves/failures routinely remove a function's *only* contributor.
CONTRIBUTES = {
    "sum": lambda i: True,
    "min": lambda i: i % 2 == 0,
    "max": lambda i: i % 3 != 1,
    "avg": lambda i: True,
    "any": lambda i: i % 4 == 0,
    "all": lambda i: True,
    "busy": lambda i: i % 2 == 1,
}

ALL_NAMES = ["count", "sum", "min", "max", "avg", "any", "all", "busy"]


def local_value(name, v):
    """The raw value a member publishes for aggregate ``name``."""
    if name == "any":
        return v > 70
    if name == "all":
        return v < 90
    return v


def expected_values(members, values):
    """Pure-Python model of every finalized aggregate over ``members``."""
    exp = {"count": len(members)}
    sums = [float(values[i]) for i in members if CONTRIBUTES["sum"](i)]
    exp["sum"] = sum(sums, 0.0)
    mins = [float(values[i]) for i in members if CONTRIBUTES["min"](i)]
    exp["min"] = min(mins) if mins else None
    maxs = [float(values[i]) for i in members if CONTRIBUTES["max"](i)]
    exp["max"] = max(maxs) if maxs else None
    avgs = [float(values[i]) for i in members if CONTRIBUTES["avg"](i)]
    exp["avg"] = (sum(avgs, 0.0) / len(avgs)) if avgs else None
    exp["any"] = any(values[i] > 70 for i in members if CONTRIBUTES["any"](i))
    exp["all"] = all(values[i] < 90 for i in members if CONTRIBUTES["all"](i))
    exp["busy"] = sum(1 for i in members
                      if CONTRIBUTES["busy"](i) and values[i] > 50)
    return exp


def build_cached_overlay():
    """A single-site overlay whose Scribe apps share one counter registry."""
    sim = Simulator()
    streams = RandomStreams(777)
    registry = SiteRegistry()
    site = registry.add("S", "X")
    network = Network(sim, UniformLatencyModel(0.3))
    overlay = Overlay(sim, network, streams, registry)
    counters = MetricsRegistry()
    for _ in range(N_NODES):
        overlay.create_node(site)
    overlay.bootstrap()
    for node in overlay.nodes:
        app = ScribeApplication(sim, counters=counters)
        app.register_function(
            make_aggregate("filter_count", lambda v: v > 50, name="busy"))
        node.register_app(app)
    return sim, overlay, counters


def publish(node, idx, v):
    """Member ``idx`` publishes value ``v`` to every aggregate it carries."""
    app = node.app("scribe")
    for name, carried_by in CONTRIBUTES.items():
        if carried_by(idx):
            app.set_local(node, TOPIC, name, local_value(name, v))


def repair(sim, overlay, rounds=3):
    """Post-failure anti-entropy: stabilize routing, repair trees, re-push."""
    for _ in range(rounds):
        for node in overlay.live_nodes():
            node.stabilize()
            node.app("scribe").maintain(node)
        sim.run()


def check_memo_coherence(overlay):
    """Every node's memoized accumulator == an uncached recomputation."""
    for node in overlay.live_nodes():
        app = node.app("scribe")
        state = app.topics().get(TOPIC)
        if state is None:
            continue
        for name in ALL_NAMES:
            fresh = app._compute_own_acc(state, name)
            # A present entry is served as is; an absent one is filled, so
            # every node holds a memo the next mutation must invalidate.
            assert app._own_acc(state, name) == fresh, (
                f"memo diverged at node {node.address} for {name!r}")
            assert state.acc_memo[name] == fresh


def test_random_interleavings_cache_equals_recompute():
    """≥N_CHECKS random op interleavings: cached answers are exact."""
    sim, overlay, counters = build_cached_overlay()
    rng = random.Random(SEED)
    asker = overlay.nodes[0]
    key = topic_id(TOPIC)
    members, values = set(), {}
    alive = set(range(N_NODES))
    failures = 0

    for step in range(N_CHECKS):
        roll = rng.random()
        if roll < 0.05 and failures < MAX_FAILURES and members:
            root = overlay.root_of(key)
            candidates = [i for i in sorted(alive - {0})
                          if overlay.nodes[i] is not root]
            victim = rng.choice(candidates)
            overlay.remove_node(overlay.nodes[victim])
            alive.discard(victim)
            members.discard(victim)
            values.pop(victim, None)
            failures += 1
            sim.run()
            repair(sim, overlay)
        elif roll < 0.40 or not members:
            idx = rng.choice(sorted(alive))
            v = rng.randint(0, 100)
            node = overlay.nodes[idx]
            node.app("scribe").join(node, TOPIC)
            publish(node, idx, v)
            members.add(idx)
            values[idx] = v
        elif roll < 0.70:
            idx = rng.choice(sorted(members))
            v = rng.randint(0, 100)
            publish(overlay.nodes[idx], idx, v)
            values[idx] = v
        else:
            idx = rng.choice(sorted(members))
            node = overlay.nodes[idx]
            node.app("scribe").leave(node, TOPIC)
            members.discard(idx)
            values.pop(idx, None)

        sim.run()
        exp = expected_values(members, values)
        got = asker.app("scribe").query_aggregate(asker, TOPIC,
                                                  ALL_NAMES).result()
        for name in ALL_NAMES:
            assert got[name] == exp[name], (
                f"step {step}: {name!r} cached={got[name]!r} "
                f"expected={exp[name]!r} (members={sorted(members)})")
        check_memo_coherence(overlay)

    # The run must actually have exercised the cache, not just bypassed it.
    assert counters.get("scribe.acc_cache.hit") > 0
    assert counters.get("scribe.acc_cache.miss") > 0
    assert counters.get("scribe.acc_cache.invalidate") > 0


def test_leave_of_sole_contributor_propagates():
    """Regression: leaving the only contributor of an aggregate must
    re-push that aggregate, not strand the parent's stale accumulator."""
    sim, overlay, _ = build_cached_overlay()
    odd = overlay.nodes[5]   # index 5: the sole "busy" carrier we enroll
    odd.app("scribe").join(odd, TOPIC)
    publish(odd, 5, 80)      # busy counts values > 50
    even = overlay.nodes[4]
    even.app("scribe").join(even, TOPIC)
    publish(even, 4, 60)     # index 4 is even: carries no "busy"
    sim.run()
    asker = overlay.nodes[0]
    assert asker.app("scribe").query_aggregate(
        asker, TOPIC, ["busy"]).result()["busy"] == 1
    odd.app("scribe").leave(odd, TOPIC)
    sim.run()
    assert asker.app("scribe").query_aggregate(
        asker, TOPIC, ["busy"]).result()["busy"] == 0
