"""Table II: average round-trip latency between Amazon sites.

The paper *measured* this matrix on EC2; we inject it as the simulator's
ground truth.  This benchmark regenerates the table from live simulated
traffic (ping exchanges between random hosts at each site pair) and checks
the measured means reproduce the published numbers.
"""

import pytest

from benchmarks.conftest import print_banner
from repro.net.latency import EC2_RTT_MS, EC2_SITES, TableIILatencyModel, make_ec2_registry
from repro.net.message import Message
from repro.net.network import Host, Network
from repro.obs.metrics import format_table
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams

PINGS_PER_PAIR = 24


class PingHost(Host):
    def __init__(self, site, sim):
        super().__init__(site)
        self.sim = sim
        self.sent_at = {}
        self.rtts = []

    def ping(self, other_address: int) -> None:
        msg = Message(kind="ping", payload={})
        self.sent_at[msg.msg_id] = self.sim.now
        self.send(other_address, msg)

    def on_message(self, msg: Message) -> None:
        if msg.kind == "ping":
            self.send(msg.src, Message(kind="pong", payload={"echo": msg.msg_id}))
        else:
            self.rtts.append(self.sim.now - self.sent_at.pop(msg.payload["echo"]))


def run_experiment():
    sim = Simulator()
    streams = RandomStreams(99)
    registry = make_ec2_registry()
    network = Network(sim, TableIILatencyModel(rng=streams.stream("jitter")))
    hosts = {site.name: PingHost(site, sim) for site in registry}
    for host in hosts.values():
        network.attach(host)

    measured = {}
    names = [name for name, _ in EC2_SITES]
    for i, a in enumerate(names):
        for b in names[i:]:
            pinger = hosts[a]
            pinger.rtts = []
            for _ in range(PINGS_PER_PAIR):
                pinger.ping(hosts[b].address)
            sim.run()
            measured[(a, b)] = sum(pinger.rtts) / len(pinger.rtts)
    return measured


@pytest.mark.benchmark(group="table2")
def test_table2_rtt_matrix(benchmark):
    measured = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    print_banner("Table II: average round-trip latency between Amazon sites (ms)")
    names = [name for name, _ in EC2_SITES]
    rows = []
    for i, a in enumerate(names):
        row = [a]
        for j, b in enumerate(names):
            if j < i:
                row.append("")
            else:
                row.append(f"{measured[(a, b)]:.1f} ({EC2_RTT_MS[(a, b)]:.1f})")
        rows.append(row)
    print(format_table(["measured (paper)"] + names, rows))

    # Shape check: every simulated mean within jitter tolerance of Table II.
    for (a, b), value in measured.items():
        expected = EC2_RTT_MS[(a, b)]
        assert value == pytest.approx(expected, rel=0.25), (a, b)
    # Intra-site latencies stay sub-millisecond.
    for name in names:
        assert measured[(name, name)] < 1.5
