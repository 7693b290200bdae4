"""Late/duplicate ``site_result`` orphan-release coverage (ISSUE 5).

When a ``site_result`` reply arrives after the coordinator gave up on
the attempt (the pending future is gone or already resolved), the reply
is an *orphan*: the nodes it names were reserved by the dead attempt and
would otherwise dangle until the hold window lapses.  The coordinator
must release each named reservation explicitly — but only the
*uncommitted* ones, because the same query may have succeeded through a
retried attempt and committed some of those very nodes.

Most tests drive the branch directly by handing the coordinator a
crafted ``site_result`` message for a request id it is not waiting on;
the GROUP BY regression duplicates a real reply with a fault rule.
"""

import random

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.faults.schedule import MessageRule
from repro.net.network import Message
from repro.query.options import QueryOptions


@pytest.fixture
def plane():
    return RBay(RBayConfig(seed=7, synthetic_sites=2, nodes_per_site=4,
                           jitter=False)).build()


def orphan_result(entries, query_id=42, request_id=999_999):
    """A site_result for a request the coordinator never heard of."""
    return Message(kind="pastry.direct", payload={
        "app": "query",
        "kind": "site_result",
        "data": {
            "request_id": request_id,
            "query_id": query_id,
            "entries": [{"address": address} for address in entries],
            "tree_sizes": {},
            "visited": len(entries),
        },
    })


def test_orphan_reply_releases_every_uncommitted_entry(plane):
    home = plane.nodes[0]
    first, second = plane.nodes[1], plane.nodes[2]
    first.reservation.try_reserve(42)
    second.reservation.try_reserve(42)

    home.apps["query"].host_message(
        home, orphan_result([first.address, second.address]))
    plane.sim.run()

    assert first.reservation.is_free()
    assert second.reservation.is_free()
    assert plane.counters.get("query.orphan_release") == 1


def test_orphan_release_spares_committed_leases(plane):
    """The retried attempt won: the customer's lease must survive the
    stale attempt's cleanup (regression for the blanket-release bug)."""
    home = plane.nodes[0]
    committed, uncommitted = plane.nodes[1], plane.nodes[2]
    committed.reservation.try_reserve(42)
    committed.reservation.commit(42, lease_ms=60_000.0)
    uncommitted.reservation.try_reserve(42)

    home.apps["query"].host_message(
        home, orphan_result([committed.address, uncommitted.address]))
    plane.sim.run()

    assert committed.reservation.holder() == 42
    assert committed.reservation.committed
    assert uncommitted.reservation.is_free()
    assert plane.counters.get("query.orphan_release") == 1


def test_duplicate_orphan_reply_does_not_double_release(plane):
    """A retransmitted orphan reply counts again but releases nothing new:
    no resurrection, no revocation of the surviving lease."""
    home = plane.nodes[0]
    committed, uncommitted = plane.nodes[1], plane.nodes[2]
    committed.reservation.try_reserve(42)
    committed.reservation.commit(42, lease_ms=60_000.0)
    uncommitted.reservation.try_reserve(42)

    duplicate = orphan_result([committed.address, uncommitted.address])
    home.apps["query"].host_message(home, duplicate)
    plane.sim.run()
    home.apps["query"].host_message(home, duplicate)
    plane.sim.run()

    assert plane.counters.get("query.orphan_release") == 2
    assert committed.reservation.holder() == 42
    assert committed.reservation.committed
    assert uncommitted.reservation.is_free()


def test_orphan_release_is_query_scoped(plane):
    """A stale reply naming a node now reserved by a *different* query
    must not release the new holder."""
    home = plane.nodes[0]
    target = plane.nodes[1]
    target.reservation.try_reserve(77)  # a newer query holds the node

    home.apps["query"].host_message(home, orphan_result([target.address],
                                                        query_id=42))
    plane.sim.run()

    assert target.reservation.holder() == 77


def test_empty_orphan_reply_releases_nothing(plane):
    home = plane.nodes[0]
    home.apps["query"].host_message(home, orphan_result([]))
    plane.sim.run()
    assert plane.counters.get("query.orphan_release") == 0


def test_duplicate_group_by_site_result_releases_nothing():
    """Regression: GROUP BY rows are ``{"group", "count"}`` — they name no
    node and hold no reservation.  A duplicated ``site_result`` carrying
    them used to raise ``KeyError: 'address'`` in the orphan-release loop;
    it must be ignored."""
    plane = RBay(RBayConfig(seed=7, synthetic_sites=2, nodes_per_site=4,
                            jitter=False)).build()
    rng = random.Random(5)
    for node in plane.nodes:
        node.define_attribute("CPU_utilization", rng.uniform(0.0, 100.0))
    plane.register_buckets("CPU_utilization", 0.0, 100.0, 4)
    plane.sim.run()
    plane.install_faults().start_rule(MessageRule(
        name="dup", duplicate_prob=1.0, kind_prefix="direct/query/site_result"))

    result = plane.query("SELECT * FROM * GROUP BY CPU_utilization;",
                         options=QueryOptions(origin="Site000"))
    plane.sim.run()  # the duplicate lands after the query resolved

    assert plane.counters.get("faults.msg_duplicated") >= 1
    assert sum(row["count"] for row in result.entries) == len(plane.nodes)
    assert plane.counters.get("query.orphan_release") == 0
    assert all(node.reservation.is_free() for node in plane.nodes)


def test_orphan_reply_mixing_group_rows_releases_only_addressed_rows(plane):
    home, held = plane.nodes[0], plane.nodes[1]
    held.reservation.try_reserve(42)
    reply = orphan_result([held.address])
    reply.payload["data"]["entries"].append({"group": "u[0,25)", "count": 3})

    home.apps["query"].host_message(home, reply)
    plane.sim.run()

    assert held.reservation.is_free()
    assert plane.counters.get("query.orphan_release") == 1
