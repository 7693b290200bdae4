"""Each query decision is set in one place.

A query's planner and retry budget are its own ``QueryOptions`` — the
plane holds no default that a site could disagree on, and the options
travel with the query to every site it asks.  Site trees have one scope,
``"site"``: every subscription, admin command, probe and anycast the plane
makes for a site-named tree stays inside that site.
"""

import dataclasses

import pytest

from repro.cli import _query_options, build_parser
from repro.core.naming import site_tree
from repro.core.plane import RBay, RBayConfig
from repro.query.executor import _SiteRequest
from repro.query.options import DEFAULT_RETRIES, QueryOptions
from repro.query.sql import parse_query
from repro.workloads.generator import FederationWorkload, WorkloadSpec


def test_the_plane_config_holds_no_per_query_setting():
    names = {field.name for field in dataclasses.fields(RBayConfig)}
    assert names.isdisjoint({"tree_scope", "planner", "site_retries"})


@pytest.mark.parametrize("retries, budget", [(None, DEFAULT_RETRIES),
                                             (0, 0), (5, 5)])
def test_retry_budget_defaults_in_the_options(retries, budget):
    assert QueryOptions(retries=retries).retry_budget == budget


@pytest.mark.parametrize("options", [
    QueryOptions(),
    QueryOptions(planner=False),
    QueryOptions(retries=0),
    QueryOptions(retries=3, planner=False, caller="c", payload={"p": 1}),
])
def test_a_remote_site_runs_under_the_coordinators_options(options):
    request = _SiteRequest(7, parse_query("SELECT 1 FROM * WHERE GPU = true"),
                           options)
    remote = _SiteRequest.unpack(request.pack(request_id=1, origin=2))
    assert remote.options == options


def test_default_options_pack_as_before():
    """The default options put ``None`` / ``True`` on the wire: one byte
    each in the size estimator and the codec, so a default query's
    ``site_query`` is as large as one that leaves both unset."""
    request = _SiteRequest(7, parse_query("SELECT 1 FROM * WHERE GPU = true"),
                           QueryOptions())
    packed = request.pack(request_id=1, origin=2)
    assert packed["retries"] is None and packed["planner"] is True


@pytest.mark.parametrize("argv, planner, retries", [
    ([], True, None),
    (["--no-planner"], False, None),
    (["--site-retries", "0"], True, 0),
    (["--no-planner", "--site-retries", "4"], False, 4),
])
def test_cli_flags_become_query_options(argv, planner, retries):
    args = build_parser().parse_args(["query", "SELECT 1 FROM *", *argv])
    options = _query_options(args, caller="cli")
    assert options == QueryOptions(caller="cli", planner=planner,
                                   retries=retries)


def test_every_site_tree_stays_inside_its_site():
    plane = RBay(RBayConfig(seed=5, synthetic_sites=3, nodes_per_site=6,
                            jitter=False)).build()
    FederationWorkload(plane, WorkloadSpec(gate_policies=False)).apply()
    plane.register_buckets("CPU_utilization", 0.0, 100.0, buckets=4)
    for site in plane.registry:
        admin = plane.admin(site.name)
        for node in plane.site_nodes(site.name)[:3]:
            admin.post_resource(node, "GPU", True)
    plane.sim.run()
    site_names = [site.name for site in plane.registry]
    leaked = []

    def watch(msg):
        data = msg.payload.get("data") if isinstance(msg.payload, dict) else None
        topic = data.get("topic") if isinstance(data, dict) else None
        if isinstance(topic, str) and "/" in topic:
            owner = topic.split("/", 1)[0]
            if plane.network.host(msg.dst).site.name != owner:
                leaked.append((topic, msg.dst))

    plane.network.set_delivery_hook(watch)
    for origin in site_names:
        for sql in ("SELECT 2 FROM * WHERE GPU = true",
                    "SELECT 2 FROM * WHERE CPU_utilization < 40%",
                    "SELECT * FROM * GROUP BY CPU_utilization"):
            result = plane.query(sql, options=QueryOptions(origin=origin))
            assert result.sites_answered
            for node in plane.nodes:
                node.reservation.release(result.query_id)
    plane.admin(site_names[0]).broadcast_command(
        plane.site_nodes(site_names[0])[0], "GPU", "GPU", {})
    plane.sim.run()
    plane.network.set_delivery_hook(None)
    assert leaked == []

    topics = set()
    for node in plane.nodes:
        for topic, state in node.scribe.topics().items():
            if topic.split("/", 1)[0] in site_names:
                assert state.scope == "site", (topic, node.address)
                topics.add(topic)
    assert site_tree(site_names[0], "GPU") in topics
    assert len(topics) > 3 * len(site_names)
