"""The plan is what runs: EXPLAIN's object against the executor's sends.

For every query shape the plan distinguishes, under the default options,
the CLI's ``--no-planner`` and ``QueryOptions(planner=False)``, the
topics a site's probe round actually asks (a spy on
``ScribeApplication.tree_size``) must equal ``plan_query(...).probes(site)``
as a list, the ``query.plan.*`` counter deltas must equal the strategies
the plan names, and ``explain()`` must mention the anycast and the member
checks iff the plan can visit a member at all.

Before the plan became the one derivation these disagreed on a WHERE-less
GROUP BY (EXPLAIN printed 0 probes, the site sent the family), on a
disjunction sharing a predicate (EXPLAIN deduped across branches, the
executor plans each branch) and on every range shape under a per-query
``planner=False`` (``plan_query`` never saw the query's options).
"""

import re
from collections import Counter

import pytest

from repro.cli import _query_options, build_parser
from repro.core.plane import RBay, RBayConfig
from repro.query.options import QueryOptions
from repro.query.plan import plan_query
from repro.query.sql import parse_query
from repro.scribe.scribe import ScribeApplication
from repro.workloads.generator import FederationWorkload, WorkloadSpec

BUCKETS = 8

CORPUS = {
    "direct": "SELECT 2 FROM * WHERE instance_type = '{a}'",
    "hierarchy": "SELECT 3 FROM * WHERE CPU = true",
    "range-probe": "SELECT * FROM * WHERE CPU_utilization >= 75%",
    "range-partial": "SELECT 2 FROM * WHERE CPU_utilization BETWEEN 10 AND 30",
    "flood": "SELECT 2 FROM * WHERE CPU_utilization <> 50",
    "empty-interval": "SELECT 2 FROM * WHERE CPU_utilization BETWEEN 60 AND 40",
    "range-and-direct": ("SELECT 2 FROM * WHERE CPU_utilization < 50% "
                         "AND instance_type = '{a}'"),
    "or-shared-predicate": (
        "SELECT * FROM * WHERE (CPU_utilization < 25% AND instance_type = '{a}') "
        "OR (CPU_utilization < 25% AND instance_type = '{b}')"),
    "group-no-where": "SELECT * FROM * GROUP BY CPU_utilization",
    "group-no-where-unbucketed": "SELECT * FROM * GROUP BY vcpu",
    "group-pushdown": ("SELECT * FROM * WHERE CPU_utilization >= 50% "
                       "GROUP BY CPU_utilization"),
    "group-partial": ("SELECT * FROM * WHERE CPU_utilization BETWEEN 10 AND 30 "
                      "GROUP BY CPU_utilization"),
    "group-disjunctive": ("SELECT * FROM * WHERE CPU_utilization < 25% "
                          "OR CPU_utilization >= 75% GROUP BY CPU_utilization"),
}

#: setting -> the options a query runs under (the planner is a per-query
#: setting): the default options, a run configured off by the CLI's
#: ``--no-planner``, and an explicit ``planner=False``.
SETTINGS = {
    "plane-default": QueryOptions(),
    "config-off": _query_options(build_parser().parse_args(
        ["explain", "SELECT 1 FROM *", "--no-planner"])),
    "query-off": QueryOptions(planner=False),
}


@pytest.fixture(scope="module")
def built():
    plane = RBay(RBayConfig(seed=21, synthetic_sites=2, nodes_per_site=12,
                            jitter=False)).build()
    dressing = FederationWorkload(
        plane, WorkloadSpec(gate_policies=False)).apply()
    plane.hierarchy.link("CPU/Intel", "CPU")
    plane.hierarchy.link("CPU/AMD", "CPU")
    for site in plane.registry:
        nodes = plane.site_nodes(site.name)
        for node, leaf in zip(nodes, ["CPU/Intel", "CPU/Intel", "CPU/AMD"]):
            plane.admin(site.name).post_resource(node, "cpu", leaf, tree=leaf)
    plane.register_buckets("CPU_utilization", 0.0, 100.0, BUCKETS)
    plane.sim.run()
    held = sorted({dressing.instance_of[n.address]
                   for n in plane.site_nodes("Site000")})
    return plane, {"a": held[0], "b": held[-1]}


@pytest.fixture()
def asked(monkeypatch):
    """Every ``tree_size`` probe as ``(site, topic)``, in send order."""
    log = []
    original = ScribeApplication.tree_size

    def spy(self, node, topic, **kwargs):
        log.append((node.site.name, topic))
        return original(self, node, topic, **kwargs)

    monkeypatch.setattr(ScribeApplication, "tree_size", spy)
    return log


def ask(plane, sql, options=None):
    """Run ``sql`` to completion and give every reservation back."""
    result = plane.query(sql, options=options)
    for node in plane.nodes:
        node.reservation.release(result.query_id)
    plane.sim.run()
    return result


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("shape", CORPUS)
def test_executor_runs_the_plan_explain_prints(built, asked, shape, setting):
    plane, types = built
    sql = CORPUS[shape].format(**types)
    options = SETTINGS[setting]
    plan = plan_query(parse_query(sql), plane.context, options)
    before = plane.counters.snapshot("query.plan")

    result = ask(plane, sql, options)

    # Steps 1-2: each site asked exactly the plan's probes, in order.
    text = plan.explain()
    printed = int(re.search(r"total size probes per site: (\d+)", text).group(1))
    for site in plan.target_sites:
        sent = [topic for name, topic in asked if name == site]
        assert sent == plan.probes(site), (shape, setting, site)
        assert printed == len(sent), (shape, setting, site)

    # The counters name the strategies the plan names, once per site.
    after = plane.counters.snapshot("query.plan")
    delta = {name: count - before.get(name, 0)
             for name, count in after.items() if count != before.get(name, 0)}
    named = Counter(f"query.plan.{strategy}"
                    for conjunction in plan.conjunctions
                    for strategy in conjunction.strategies())
    assert delta == {name: count * len(plan.target_sites)
                     for name, count in named.items()}, (shape, setting)

    # Steps 3-4 are printed iff some conjunction can visit a member.
    can_visit = any(c.visits_members() for c in plan.conjunctions)
    assert ("step 3: anycast" in text) == can_visit, (shape, setting)
    assert ("step 4 (at each member)" in text) == can_visit, (shape, setting)
    if not can_visit:
        assert result.visited_members == 0, (shape, setting)


def test_corpus_covers_both_sides(built):
    """The iff above is not vacuous: the corpus holds member-visiting plans
    that do visit, pushdowns, and plans with nothing to probe."""
    plane, types = built
    assert ask(plane, CORPUS["range-probe"]).visited_members > 0
    plans = {shape: plan_query(parse_query(sql.format(**types)), plane.context)
             for shape, sql in CORPUS.items()}
    assert plans["group-pushdown"].conjunctions[0].pushdown is not None
    assert len(plans["group-no-where"].probes("Site000")) == BUCKETS
    assert plans["empty-interval"].probes("Site000") == []
    assert plans["group-no-where-unbucketed"].probes("Site000") == []
    assert len(plans["or-shared-predicate"].conjunctions) == 2
