"""Per-layer microbenchmarks: each times one layer's public functions alone.

Same rule as the end-to-end estimator: the work is fixed, so the figure
reported is the minimum over ``reps`` timings.  Sizes come from a
:class:`MicroSpec`; the quick profile shrinks them, the full profile is
what ``BENCHMARK.json`` reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Callable, Dict, List

from repro import Observability, RBay, RBayConfig
from repro.aa.interpreter import Interpreter
from repro.aa.parser import parse as parse_luette
from repro.aa.runtime import AARuntime
from repro.aa.stdlib import make_sandbox_globals
from repro.core.naming import site_tree
from repro.core.policies import password_policy
from repro.net.message import Message
from repro.pastry.node import Application
from repro.pastry.nodeid import NodeId
from repro.query.plan import plan_query
from repro.query.sql import parse_query
from repro.sim.engine import Simulator
from repro.transport.codec import decode_message, encode_frame

import workloads
from layers import NullTracer


@dataclass(frozen=True)
class MicroSpec:
    reps: int = 3
    sim_events: int = 200_000
    message_builds: int = 50_000
    overlay_sites: int = 32
    overlay_nodes_per_site: int = 32
    route_keys: int = 20_000
    rollup_nodes: int = 64
    rollup_waves: int = 100
    query_strings: int = 2_000
    on_get_calls: int = 20_000
    luette_iterations: int = 40_000
    corpus_queries: int = 40
    span_records: int = 100_000
    #: The tracing / sanitizer on-over-off ratios replay this storm.
    ratio_storm: workloads.PublishStormSpec = workloads.PublishStormSpec(
        sites=8, nodes_per_site=16, window_ms=2_000.0, queries=32, query_burst=16)


QUICK = MicroSpec(
    reps=2, sim_events=20_000, message_builds=5_000, overlay_sites=4,
    overlay_nodes_per_site=8, route_keys=1_000, rollup_nodes=16, rollup_waves=10,
    query_strings=100, on_get_calls=1_000, luette_iterations=2_000,
    corpus_queries=6, span_records=5_000,
    ratio_storm=workloads.PublishStormSpec(
        sites=2, nodes_per_site=4, window_ms=500.0, queries=4, query_burst=4))


def _best(reps: int, run: Callable[[], float]) -> float:
    """Minimum of ``reps`` timings; ``run`` returns its own measured seconds."""
    return min(run() for _ in range(reps))


def _noop() -> None:
    pass


class _NullApp(Application):
    """Routes end at the key's root and nothing happens there."""

    name = "null"

    def deliver(self, node: Any, key: NodeId, msg: Message) -> None:
        pass


class _Capture(NullTracer):
    """Keeps every message delivered during the measured schedule."""

    def __init__(self) -> None:
        self.messages: List[Message] = []

    def start(self, plane: Any) -> None:
        plane.network.set_delivery_hook(self.messages.append)

    def stop(self, plane: Any) -> None:
        plane.network.set_delivery_hook(None)


# ----------------------------------------------------------------------
def sim_schedule_pop_ns(spec: MicroSpec) -> float:
    """Post + pop of one no-op event on the DES heap."""
    def run() -> float:
        sim = Simulator()
        start = perf_counter()
        for i in range(spec.sim_events):
            sim.post(float(i % 97), _noop)
        sim.run()
        return perf_counter() - start

    return _best(spec.reps, run) / spec.sim_events * 1e9


def _rollup_plane(spec: MicroSpec, seed: int) -> Any:
    plane = RBay(RBayConfig(seed=seed, synthetic_sites=1,
                            nodes_per_site=spec.rollup_nodes, jitter=False)).build()
    topic = site_tree(plane.nodes[0].site.name, workloads.LOAD_TREE)
    for node in plane.nodes:
        node.scribe.join(node, topic, scope="site")
    plane.sim.run()
    return plane, topic


def scribe_rollup(spec: MicroSpec, seed: int) -> Dict[str, float]:
    """One-site tree, every member publishes each wave; also hands back
    the largest ``agg_push`` payload seen, for the message-build micro."""
    captured: List[Message] = []

    def run() -> float:
        plane, topic = _rollup_plane(spec, seed)
        rng = random.Random(seed)
        plane.network.set_delivery_hook(captured.append)
        start = perf_counter()
        for _ in range(spec.rollup_waves):
            for node in plane.nodes:
                node.scribe.set_local(node, topic, "sum", rng.uniform(0.0, 100.0))
            plane.sim.run(until=plane.sim.now + 50.0)
        return perf_counter() - start

    best = _best(spec.reps, run)
    pushes = [m for m in captured if m.kind == "pastry.direct"
              and m.payload["kind"].startswith("agg_push")]
    payload = max(pushes, key=Message.size_bytes).payload

    def build() -> float:
        start = perf_counter()
        for _ in range(spec.message_builds):
            Message("pastry.direct", payload).size_bytes()
        return perf_counter() - start

    return {
        "scribe.rollup_us_per_publish":
            best / (spec.rollup_waves * spec.rollup_nodes) * 1e6,
        "net.message_build_ns": _best(spec.reps, build) / spec.message_builds * 1e9,
    }


def pastry_route_ns_per_hop(spec: MicroSpec, seed: int) -> float:
    """Random keys routed to their roots on a bootstrapped overlay."""
    plane = RBay(RBayConfig(seed=seed, synthetic_sites=spec.overlay_sites,
                            nodes_per_site=spec.overlay_nodes_per_site,
                            jitter=False)).build()
    for node in plane.nodes:
        node.register_app(_NullApp())
    rng = random.Random(seed)
    keys = [(rng.choice(plane.nodes), NodeId.random(rng)) for _ in range(spec.route_keys)]

    def run() -> float:
        before = sum(n.stats["route_forwarded"] for n in plane.nodes)
        start = perf_counter()
        for node, key in keys:
            node.route(key, "null", {})
        plane.sim.run()
        elapsed = perf_counter() - start
        hops = sum(n.stats["route_forwarded"] for n in plane.nodes) - before
        return elapsed / hops

    return _best(spec.reps, run) * 1e9


def query_and_transport(spec: MicroSpec, seed: int) -> Dict[str, float]:
    """SQL parse, ``--explain`` planning, and the codec over real traffic.

    The strings are ``query_mix``'s; the corpus is every message a short
    ``query_mix`` delivers.
    """
    capture = _Capture()
    mix = replace(workloads.QueryMixSpec(), queries=spec.corpus_queries, warmup_queries=0)
    workloads.run_query_mix(mix, seed, capture)
    plane = RBay(RBayConfig(seed=seed, nodes_per_site=mix.nodes_per_site)).build()
    plane.register_buckets("CPU_utilization", 0.0, 100.0, buckets=mix.buckets)
    strings = [sql for _, sql in workloads.query_mix_plan(
        replace(mix, queries=spec.query_strings),
        seed, [site.name for site in plane.registry])]

    def parse() -> float:
        start = perf_counter()
        for sql in strings:
            parse_query(sql)
        return perf_counter() - start

    def explain() -> float:
        start = perf_counter()
        for sql in strings:
            plan_query(parse_query(sql), plane.context).explain()
        return perf_counter() - start

    frames: List[bytes] = []

    def encode() -> float:
        frames.clear()
        start = perf_counter()
        for msg in capture.messages:
            frames.append(encode_frame(msg))
        return perf_counter() - start

    encode_s = _best(spec.reps, encode)
    megabytes = sum(len(f) for f in frames) / 1e6

    def decode() -> float:
        start = perf_counter()
        for body in frames:
            decode_message(body[4:])
        return perf_counter() - start

    return {
        "query.parse_us": _best(spec.reps, parse) / len(strings) * 1e6,
        "query.explain_us": _best(spec.reps, explain) / len(strings) * 1e6,
        "transport.encode_mb_per_s": megabytes / encode_s,
        "transport.decode_mb_per_s": megabytes / _best(spec.reps, decode),
    }


def aa_micro(spec: MicroSpec) -> Dict[str, float]:
    """The password gate through ``AARuntime.on_get``, and raw Luette speed."""
    runtime = AARuntime()
    runtime.define("access", 27, password_policy(27, workloads.PASSWORD))
    payload = {"password": workloads.PASSWORD}

    def on_get() -> float:
        start = perf_counter()
        for _ in range(spec.on_get_calls):
            runtime.on_get("access", "bench", payload)
        return perf_counter() - start

    chunk = parse_luette(
        f"local x = 0\nfor i = 1, {spec.luette_iterations} do x = x + i % 7 end\nreturn x")
    rates = []
    for _ in range(spec.reps):
        interpreter = Interpreter(make_sandbox_globals(), instruction_limit=10**9)
        start = perf_counter()
        interpreter.run_chunk(chunk)
        rates.append(interpreter.instructions_executed / (perf_counter() - start))
    return {
        "aa.on_get_us": _best(spec.reps, on_get) / spec.on_get_calls * 1e6,
        "aa.instructions_per_s": max(rates),
    }


def obs_span_record_ns(spec: MicroSpec) -> Dict[str, float]:
    """One start/end pair on the disabled and on the enabled recorder."""
    out = {}
    for label, enabled in (("off", False), ("on", True)):
        def run() -> float:
            recorder = Observability(Simulator(), enabled=enabled,
                                     max_spans=spec.span_records).recorder
            start = perf_counter()
            for _ in range(spec.span_records):
                recorder.end(recorder.start("bench", category="bench"))
            return perf_counter() - start

        out[f"obs.span_record_ns_{label}"] = _best(spec.reps, run) / spec.span_records * 1e9
    return out


def on_over_off(spec: MicroSpec, seed: int) -> Dict[str, float]:
    """Wall ratio of a small ``publish_storm`` with tracing / the sanitizer
    on, over the same storm with both off (per-slice minima each arm)."""
    def wall(storm: workloads.PublishStormSpec) -> float:
        runs = [workloads.run_publish_storm(storm, seed).slices
                for _ in range(spec.reps)]
        return sum(min(column) for column in zip(*runs))

    off = wall(spec.ratio_storm)
    return {
        "obs.tracing_on_over_off": wall(replace(spec.ratio_storm, tracing=True)) / off,
        "check.sanitize_on_over_off": wall(replace(spec.ratio_storm, sanitize=True)) / off,
    }


def run_all(spec: MicroSpec, seed: int) -> Dict[str, float]:
    """Every micro metric, by name."""
    out = {
        "sim.schedule_pop_ns": sim_schedule_pop_ns(spec),
        "pastry.route_ns_per_hop": pastry_route_ns_per_hop(spec, seed),
    }
    out.update(scribe_rollup(spec, seed))
    out.update(query_and_transport(spec, seed))
    out.update(aa_micro(spec))
    out.update(obs_span_record_ns(spec))
    out.update(on_over_off(spec, seed))
    return out
