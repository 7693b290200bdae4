"""Live 4-site end-to-end: the whole protocol stack on real TCP sockets.

One plane, four synthetic sites, asyncio transport with a compressed
clock.  Exercises the full lifecycle over the wire: protocol join of a
new node, subscription + attribute update with re-bucketing, a range
query with GROUP BY, and an induced connection drop that must surface
as a *degraded* result with the failed site named — the live analogue
of the sim chaos tests.
"""

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.query.options import QueryOptions
from repro.workloads.generator import FederationWorkload, WorkloadSpec

SEED = 2017
PASSWORD = "rbay"


@pytest.fixture(scope="module")
def live_plane():
    plane = RBay(RBayConfig(
        seed=SEED,
        synthetic_sites=4,
        nodes_per_site=3,
        jitter=False,
        transport="asyncio",
        time_scale=0.02,
        connect_retries=1,
    )).build()
    try:
        FederationWorkload(plane, WorkloadSpec(password=PASSWORD)).apply()
        plane.register_buckets("CPU_utilization", 0.0, 100.0, buckets=4)
        plane.sim.run()
        yield plane
    finally:
        plane.close()


def q(plane, sql, **kwargs):
    return plane.query(sql, options=QueryOptions(
        payload={"password": PASSWORD}, **kwargs))


def groups(result):
    return {e["group"]: e["count"] for e in result.entries}


def test_live_query_with_group_by(live_plane):
    net = live_plane.network
    sent, framed = net.messages_sent, net.wire_bytes_sent
    result = q(live_plane, "SELECT * FROM * GROUP BY CPU_utilization;")
    assert result.satisfied and not result.degraded
    got = groups(result)
    assert sum(got.values()) == len(live_plane.nodes)
    assert len(result.sites_answered) == 4
    # The live backend runs the DES's protocol traffic, message for
    # message; what it adds is real framed bytes (more than a 4-byte
    # length prefix per message).
    twin = RBay(RBayConfig(seed=SEED, synthetic_sites=4, nodes_per_site=3,
                           jitter=False)).build()
    FederationWorkload(twin, WorkloadSpec(password=PASSWORD)).apply()
    twin.register_buckets("CPU_utilization", 0.0, 100.0, buckets=4)
    twin.sim.run()
    twin_sent = twin.network.messages_sent
    assert groups(q(twin, "SELECT * FROM * GROUP BY CPU_utilization;")) == got
    # A probe that times out on a loaded box is retried: parity is exact
    # only for a retry-free run, and a retry can only add messages.
    live_msgs = net.messages_sent - sent
    twin_msgs = twin.network.messages_sent - twin_sent
    if result.retries == 0:
        assert live_msgs == twin_msgs
    else:
        assert live_msgs >= twin_msgs
    assert net.wire_bytes_sent - framed > 4 * (net.messages_sent - sent)


def test_live_range_query_with_group_by(live_plane):
    unrestricted = groups(q(live_plane,
                            "SELECT * FROM * GROUP BY CPU_utilization;"))
    result = q(live_plane,
               "SELECT * FROM * WHERE CPU_utilization >= 25.0 "
               "AND CPU_utilization < 75.0 GROUP BY CPU_utilization;")
    assert result.satisfied and not result.degraded
    # The range-restricted grouping is exactly the middle two buckets of
    # the unrestricted one.
    middle = {label: count for label, count in unrestricted.items()
              if label in ("CPU_utilization[25,50)", "CPU_utilization[50,75)")}
    assert groups(result) == middle


def test_live_protocol_join_over_sockets(live_plane):
    plane = live_plane
    site = plane.registry.by_name("Site002")
    before = len(plane.nodes)
    seed_node = plane.site_nodes("Site002")[0]
    node = plane.add_node(site, join_via=seed_node)  # join runs on the wire
    plane.settle(2_000.0)
    assert len(plane.nodes) == before + 1
    assert plane.network.has_host(node.address)
    assert plane.network.port_of(node.address) is not None
    # The joined node carries data; an attribute update re-evaluates its
    # eager bucket memberships, after which it shows up in group counts.
    node.define_attribute("CPU_utilization", 30.0)
    plane.settle(1_000.0)
    node.update_attribute("CPU_utilization", 31.0)
    plane.settle(2_000.0)
    # The newcomer's id is the closest in its site to its bucket tree's
    # key, so it is that tree's new rendezvous; the previous root hands
    # over on its next maintenance tick (the root re-anchor of
    # ``ScribeApplication.maintain``), also over the wire.
    for peer in plane.site_nodes("Site002"):
        peer.maintenance_tick()
    plane.settle(2_000.0)
    result = q(plane, "SELECT * FROM * GROUP BY CPU_utilization;")
    assert sum(groups(result).values()) == len(plane.nodes)
    assert groups(result)["CPU_utilization[25,50)"] == 2


def test_live_attribute_update_rebuckets(live_plane):
    plane = live_plane
    node = plane.site_nodes("Site000")[1]
    baseline = groups(q(plane, "SELECT * FROM * GROUP BY CPU_utilization;"))
    node.update_attribute("CPU_utilization", 99.0)  # move to the top bucket
    plane.settle(2_000.0)
    moved = groups(q(plane, "SELECT * FROM * GROUP BY CPU_utilization;"))
    assert sum(moved.values()) == sum(baseline.values())
    top = max(moved)  # bucket labels sort; the hottest bucket gained
    assert moved[top] >= baseline.get(top, 0)
    assert moved != baseline or baseline.get(top, 0) > 0


def test_live_connection_drop_degrades_result(live_plane):
    plane = live_plane
    victim = "Site003"
    gateway = plane.context.gateways[victim]
    # Tight timeouts keep the degraded path fast (virtual ms).
    old_site, old_probe = (plane.context.site_timeout_ms,
                           plane.context.probe_timeout_ms)
    plane.context.site_timeout_ms = 1_500.0
    plane.context.probe_timeout_ms = 750.0
    try:
        plane.network.cut(gateway)
        result = q(plane, "SELECT * FROM * GROUP BY CPU_utilization;",
                   retries=0)
        assert result.degraded
        assert victim in result.failed_sites
        assert victim not in result.sites_answered
        assert sum(groups(result).values()) > 0  # partial data, not empty
    finally:
        plane.network.heal(gateway)
        plane.context.site_timeout_ms = old_site
        plane.context.probe_timeout_ms = old_probe
    healed = q(plane, "SELECT * FROM * GROUP BY CPU_utilization;")
    assert not healed.degraded
    assert victim in healed.sites_answered
