#!/usr/bin/env python3
"""The per-message floor: a two-host ping-pong, in the sim and live.

Two hosts on one :class:`repro.net.network.Network` bounce one message
back and forth: each delivery's handler sends the next message, so a run
of N messages is N admissions, N latency draws, N heap events and N
arrivals with no protocol work around them.  The tool prints the wall
microseconds per message, the median of ``--runs`` runs, for each arm:

* ``jitter``: the Table II model with a jitter stream (one lognormal
  draw per message) or without one (the plain Table II delay);
* ``size``: the sender supplies the message's size, or the transport
  walks the message at admission.

The bench's ``net.message_build_ns`` times ``Message`` construction only;
this is the whole carriage around a hop, the net layer's own micro.

The live arm is the transport layer's own micro, in three rows:

* ``live ping-pong``: the same bounce between two hosts of one
  :class:`~repro.transport.asyncio_transport.AsyncioTransport`, over
  loopback TCP (connected before the clock starts): per frame one
  encode, one socket write, one read, one decode and one delivery;
* ``encode golden`` / ``decode golden``: the codec alone, per frame,
  over every message of ``tests/data/wire_golden.json``.

The quiet-plane arm is the maintenance micro: ``query_mix``'s plane (the
8 EC2 sites × 25 nodes, dressed and bucketed as ``bench/workloads.py``
builds it) runs :data:`QUIET_SECONDS` simulated seconds with maintenance
on and no queries.  Its two rows are the host microseconds per maintenance
tick (everything the tick sends and its receivers do included) and per
simulated second.

The bootstrap arm is the Pastry layer's set-up micro, beside its per-hop
one: the wall milliseconds of one ``Overlay.bootstrap`` (leaf sets and
routing tables, both scopes) at each of :data:`BOOTSTRAP_SHAPES`, sites ×
nodes per site: ``publish_storm``'s isolated 32 × 32 plane on the
synthetic ring, and fig 8a's single 4,096-node site on one uniform delay.

Usage, from the repository root::

    python tools/msg_floor.py
    python tools/msg_floor.py --messages 50000 --runs 7
    python tools/msg_floor.py --src path/to/other/src   # another tree

``make floor`` runs the first line.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: The payload every ping carries: a few keys, like a small direct message.
PAYLOAD = {"topic": "Site000/CPU_utilization", "request_id": 7, "hops": [1, 2]}

#: Simulated seconds of one quiet-plane run (about 0.6 s of host time).
QUIET_SECONDS = 20.0

#: The bootstrap arm's planes, row name -> (sites, nodes per site).
BOOTSTRAP_SHAPES = {"bootstrap 32x32": (32, 32), "bootstrap 1x4096": (1, 4096)}


def ping_pong_us(messages: int, jitter: bool, supplied: bool) -> float:
    """Wall microseconds per message of one ``messages``-long ping-pong."""
    from repro.net.latency import TableIILatencyModel, make_ec2_registry
    from repro.net.message import Message
    from repro.net.network import Host, Network
    from repro.sim.engine import Simulator

    sim = Simulator()
    model = TableIILatencyModel(rng=random.Random(1) if jitter else None)
    network = Network(sim, model)
    size = Message("ping", PAYLOAD).size_bytes() if supplied else None
    left = [messages]

    class Player(Host):
        peer = 0

        def on_message(self, msg: Message) -> None:
            left[0] -= 1
            if left[0] > 0:
                network.send(self, self.peer, Message("ping", PAYLOAD), size)

    sites = list(make_ec2_registry())
    a, b = Player(sites[0]), Player(sites[5])
    network.attach(a)
    network.attach(b)
    a.peer, b.peer = b.address, a.address
    start = perf_counter()
    network.send(a, b.address, Message("ping", PAYLOAD), size)
    sim.run()
    elapsed = perf_counter() - start
    assert network.messages_delivered == messages
    return elapsed / messages * 1e6


def live_ping_pong_us(messages: int) -> float:
    """Wall microseconds per frame of one ``messages``-long ping-pong over
    loopback TCP, after a warm-up round trip has connected both ways."""
    from repro.net.message import Message
    from repro.net.network import Host
    from repro.net.site import SiteRegistry
    from repro.transport.asyncio_transport import AsyncioTransport
    from repro.transport.realtime import RealtimeScheduler

    sched = RealtimeScheduler()
    network = AsyncioTransport(sched)
    size = Message("ping", PAYLOAD).size_bytes()
    left = [2]

    class Player(Host):
        peer = 0

        def on_message(self, msg: Message) -> None:
            left[0] -= 1
            if left[0] > 0:
                network.send(self, self.peer, Message("ping", PAYLOAD), size)

    registry = SiteRegistry()
    registry.add("A", "r")
    registry.add("B", "r")
    a, b = (Player(site) for site in registry)
    try:
        network.attach(a)
        network.attach(b)
        a.peer, b.peer = b.address, a.address
        for count in (2, messages):  # the warm-up connects both ways
            left[0] = count
            start = perf_counter()
            network.send(a, b.address, Message("ping", PAYLOAD), size)
            assert sched.run_until(lambda: left[0] == 0, timeout=600_000.0)
            elapsed = perf_counter() - start
        assert network.messages_delivered == 2 + messages
    finally:
        network.close()
        sched.close()
    return elapsed / messages * 1e6


def codec_us(frames: int) -> Dict[str, float]:
    """Encode and decode microseconds per frame over the golden corpus,
    cycled through until ``frames`` frames have been timed."""
    from repro.transport.codec import decode_message, encode_frame

    with open(ROOT / "tests" / "data" / "wire_golden.json",
              encoding="utf-8") as handle:
        corpus = json.load(handle)["messages"]
    bodies = [bytes.fromhex(entry["hex"])[4:] for entry in corpus]
    messages = [decode_message(body) for body in bodies]
    rounds = max(1, frames // len(bodies))
    start = perf_counter()
    for _ in range(rounds):
        for msg in messages:
            encode_frame(msg)
    encode_s = perf_counter() - start
    start = perf_counter()
    for _ in range(rounds):
        for body in bodies:
            decode_message(body)
    decode_s = perf_counter() - start
    timed = rounds * len(bodies)
    return {"encode golden": encode_s / timed * 1e6,
            "decode golden": decode_s / timed * 1e6}


def measure_live(messages: int, runs: int) -> Dict[str, List[float]]:
    """``{row: [µs per frame per run]}`` for the live arm's three rows,
    the runs interleaved like :func:`measure`'s."""
    rows: Dict[str, List[float]] = {"live ping-pong": [], "encode golden": [],
                                    "decode golden": []}
    for _ in range(runs):
        rows["live ping-pong"].append(live_ping_pong_us(messages))
        for row, value in codec_us(messages).items():
            rows[row].append(value)
    return rows


def quiet_plane_us(sim_seconds: float) -> Dict[str, float]:
    """Host microseconds per maintenance tick and per simulated second of
    ``query_mix``'s plane left to its maintenance for ``sim_seconds``.
    Every tick runs one ``stabilize`` exchange: their count is the ticks."""
    from repro import RBay, RBayConfig
    from repro.workloads.generator import FederationWorkload, WorkloadSpec

    plane = RBay(RBayConfig(seed=2017, nodes_per_site=25,
                            lease_ms=500.0)).build()
    FederationWorkload(plane, WorkloadSpec(
        password="rbay", active_subscriptions=False)).apply()
    plane.register_buckets("CPU_utilization", 0.0, 100.0, buckets=8)
    plane.sim.run()
    plane.start_maintenance()
    plane.settle(1_000.0)

    def ticks() -> int:
        return sum(node.stats["stabilize_exchanges"] for node in plane.nodes)

    before = ticks()
    start = perf_counter()
    plane.settle(sim_seconds * 1_000.0)
    elapsed = perf_counter() - start
    plane.stop_maintenance()
    return {"quiet tick": elapsed / (ticks() - before) * 1e6,
            "quiet sim second": elapsed / sim_seconds * 1e6}


def measure_quiet(sim_seconds: float, runs: int) -> Dict[str, List[float]]:
    """``{row: [µs per run]}`` for the quiet-plane arm's two rows."""
    rows: Dict[str, List[float]] = {"quiet tick": [], "quiet sim second": []}
    for _ in range(runs):
        for row, value in quiet_plane_us(sim_seconds).items():
            rows[row].append(value)
    return rows


def bootstrap_ms(sites: int, per_site: int) -> float:
    """Wall milliseconds of one ``Overlay.bootstrap`` of ``sites`` ×
    ``per_site`` nodes: isolated on the synthetic ring as a plane builds
    it, or, for one site, unisolated on a uniform delay as fig 8a does."""
    from repro.net.latency import SyntheticLatencyModel, UniformLatencyModel
    from repro.net.network import Network
    from repro.net.site import SiteRegistry
    from repro.pastry.overlay import Overlay
    from repro.sim.engine import Simulator
    from repro.sim.random_streams import RandomStreams

    registry = SiteRegistry()
    for index in range(sites):
        registry.add(f"Site{index:03d}", "Synthetic")
    latency = (SyntheticLatencyModel(sites) if sites > 1
               else UniformLatencyModel(0.25))
    sim = Simulator()
    overlay = Overlay(sim, Network(sim, latency), RandomStreams(2017),
                      registry, isolation=sites > 1)
    overlay.create_population(per_site)
    gc.collect()  # earlier runs' planes are cyclic garbage: not this run's cost
    start = perf_counter()
    overlay.bootstrap()
    return (perf_counter() - start) * 1e3


def measure_bootstrap(runs: int) -> Dict[str, List[float]]:
    """``{row: [ms per run]}`` for the bootstrap arm's rows."""
    rows: Dict[str, List[float]] = {row: [] for row in BOOTSTRAP_SHAPES}
    for _ in range(runs):
        for row, shape in BOOTSTRAP_SHAPES.items():
            rows[row].append(bootstrap_ms(*shape))
    return rows


def measure(messages: int, runs: int) -> Dict[str, List[float]]:
    """``{arm: [µs per message per run]}`` over the four arms, the runs of
    every arm interleaved so a slow stretch of the machine hits them all."""
    arms = {(jitter, supplied): [] for jitter in (True, False)
            for supplied in (True, False)}
    for _ in range(runs):
        for (jitter, supplied), values in arms.items():
            values.append(ping_pong_us(messages, jitter, supplied))
    return {f"jitter {'on ' if jitter else 'off'}  size "
            f"{'supplied' if supplied else 'walked  '}": values
            for (jitter, supplied), values in arms.items()}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--messages", type=int, default=20_000,
                        help="messages per ping-pong run (default 20000)")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per arm; the median is reported (default 5)")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the src/ whose repro is measured (default: this tree's)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    results = {**measure(args.messages, args.runs),
               **measure_live(args.messages, args.runs),
               **measure_quiet(QUIET_SECONDS, args.runs),
               **measure_bootstrap(args.runs)}
    print(f"{'arm (us per msg, frame, tick, sim s; ms per boot)':48s} "
          f"{'median':>10s} {'min':>10s} {'max':>10s}")
    for arm, values in results.items():
        print(f"{arm:48s} {statistics.median(values):10.2f} "
              f"{min(values):10.2f} {max(values):10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
