"""The paper's anycast-locality claim (§II-B3).

"Pastry's local route convergence ensures that the message reaches a tree
member near the message's sender with high probability.  RBAY uses anycast
to ... quickly discover available resources close to the customer."

We build one *global* tree with members at every site, anycast from random
senders, and check (a) the first member visited is in the sender's own
site far more often than the uniform-membership baseline, and (b) the
cost of reaching that first member is correspondingly small.
"""

import pytest

from repro.net.latency import TableIILatencyModel, make_ec2_registry
from repro.net.network import Network
from repro.pastry.overlay import Overlay
from repro.scribe.scribe import ScribeApplication
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams

NODES_PER_SITE = 24
MEMBERS_PER_SITE = 8
TRIALS = 120


@pytest.fixture(scope="module")
def tree_world():
    sim = Simulator()
    streams = RandomStreams(4242)
    registry = make_ec2_registry()
    network = Network(sim, TableIILatencyModel())
    overlay = Overlay(sim, network, streams, registry)
    overlay.create_population(NODES_PER_SITE)
    overlay.bootstrap()
    for node in overlay.nodes:
        node.register_app(ScribeApplication(sim))
    rng = streams.stream("members")
    for site in registry:
        site_nodes = [n for n in overlay.nodes if n.site.index == site.index]
        for member in rng.sample(site_nodes, MEMBERS_PER_SITE):
            member.app("scribe").join(member, "shared")
    sim.run()
    return sim, streams, overlay


def first_member_visited(sim, overlay, sender):
    seen = []

    def visitor(node, topic, state):
        seen.append(node)
        return state, True  # stop at the first member

    for node in overlay.nodes:
        node.app("scribe").anycast_visitor = visitor
    start = sim.now
    result = sender.app("scribe").anycast(sender, "shared", {}).result()
    return seen[0], sim.now - start


def test_anycast_prefers_nearby_members(tree_world):
    sim, streams, overlay = tree_world
    rng = streams.stream("senders")
    local_hits = 0
    for _ in range(TRIALS):
        sender = rng.choice(overlay.nodes)
        member, _ = first_member_visited(sim, overlay, sender)
        if member.site.index == sender.site.index:
            local_hits += 1
    local_fraction = local_hits / TRIALS
    # Uniform membership baseline: 1/8 of members are in the sender's site.
    assert local_fraction > 2.5 / 8, local_fraction


def test_anycast_first_member_cost_tracks_locality(tree_world):
    sim, streams, overlay = tree_world
    rng = streams.stream("senders2")
    local_costs, remote_costs = [], []
    for _ in range(TRIALS):
        sender = rng.choice(overlay.nodes)
        member, elapsed = first_member_visited(sim, overlay, sender)
        (local_costs if member.site.index == sender.site.index
         else remote_costs).append(elapsed)
    assert local_costs, "no local discoveries at all"
    mean_local = sum(local_costs) / len(local_costs)
    if remote_costs:
        mean_remote = sum(remote_costs) / len(remote_costs)
        # Discovering a member in-site is much cheaper than going abroad.
        assert mean_local < mean_remote
