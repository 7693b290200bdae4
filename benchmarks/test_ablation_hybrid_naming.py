"""Ablation: hybrid tree hierarchy vs. flat per-property trees (§III-C).

The paper motivates the hybrid naming scheme with nested properties:
flat naming creates "plenty of unnecessary overlapping trees" ("Intel CPU"
and "AMD CPU" both inside "CPU"), and adding a device with new properties
forces every site to learn new tree names.  The hybrid scheme keeps only
leaf trees materialized and answers ancestor queries by recursive
expansion.

We materialize a brand/model/core-size property catalog both ways and
compare (a) total tree memberships maintained and (b) the cost of adding a
new device model, while verifying queries on the major attribute return
identical node sets.
"""

import pytest

from benchmarks.conftest import print_banner
from repro.core.naming import AttributeHierarchy
from repro.obs.metrics import format_table

#: brand -> model -> core sizes (a miniature device catalog).
CATALOG = {
    "Intel": {"i7": (4, 8), "i5": (4,), "Xeon": (8, 16, 32)},
    "AMD": {"Ryzen": (6, 12), "Epyc": (32, 64)},
    "NVIDIA": {"A100": (108,), "V100": (80,)},
}
NODES_PER_LEAF = 25


def leaf_trees():
    for brand, models in CATALOG.items():
        for model, cores in models.items():
            for core in cores:
                yield brand, model, core


def run_flat():
    """Flat naming: one tree per property *at every nesting level*."""
    memberships = 0
    trees = set()
    node_sets = {}
    node_id = 0
    for brand, model, core in leaf_trees():
        for _ in range(NODES_PER_LEAF):
            names = (
                "CPU",
                f"CPU/{brand}",
                f"CPU/{brand}/{model}",
                f"CPU/{brand}/{model}/{core}",
            )
            for name in names:
                trees.add(name)
                memberships += 1
                node_sets.setdefault(name, set()).add(node_id)
            node_id += 1
    return {"trees": len(trees), "memberships": memberships,
            "node_sets": node_sets}


def run_hybrid():
    """Hybrid naming: members live only in leaf trees; ancestors are links."""
    hierarchy = AttributeHierarchy()
    memberships = 0
    node_sets = {}
    node_id = 0
    for brand, models in CATALOG.items():
        hierarchy.link(f"CPU/{brand}", "CPU")
        for model, cores in models.items():
            hierarchy.link(f"CPU/{brand}/{model}", f"CPU/{brand}")
            for core in cores:
                hierarchy.link(f"CPU/{brand}/{model}/{core}", f"CPU/{brand}/{model}")
    for brand, model, core in leaf_trees():
        leaf = f"CPU/{brand}/{model}/{core}"
        for _ in range(NODES_PER_LEAF):
            memberships += 1
            node_sets.setdefault(leaf, set()).add(node_id)
            node_id += 1
    return {"hierarchy": hierarchy, "trees": hierarchy.tree_count(),
            "memberships": memberships, "node_sets": node_sets}


def hybrid_query(hybrid, tree):
    """Resolve a query on any tree via recursive expansion over leaves."""
    nodes = set()
    for leaf in hybrid["hierarchy"].expand(tree):
        nodes |= hybrid["node_sets"].get(leaf, set())
    return nodes


def run_experiment():
    return {"flat": run_flat(), "hybrid": run_hybrid()}


@pytest.mark.benchmark(group="ablation-hybrid")
def test_ablation_hybrid_vs_flat_naming(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    flat, hybrid = results["flat"], results["hybrid"]

    print_banner("Ablation: flat per-property trees vs. hybrid hierarchy (§III-C)")
    print(format_table(
        ["scheme", "trees", "tree memberships maintained"],
        [
            ["flat", flat["trees"], flat["memberships"]],
            ["hybrid", hybrid["trees"], hybrid["memberships"]],
        ],
    ))

    # Same answer for every query, from 'CPU' down to single core sizes.
    for tree in list(flat["node_sets"]):
        assert hybrid_query(hybrid, tree) == flat["node_sets"][tree], tree

    # Hybrid maintains one membership per node instead of one per nesting
    # level: a 4x reduction for this four-deep catalog.
    assert hybrid["memberships"] * 3 < flat["memberships"]

    # Adding a new device model only links a new leaf under existing majors
    # — no new membership for the ancestor trees.
    hierarchy = hybrid["hierarchy"]
    before = hierarchy.tree_count()
    hierarchy.link("CPU/Intel/i9", "CPU/Intel")
    hierarchy.link("CPU/Intel/i9/24", "CPU/Intel/i9")
    assert hierarchy.tree_count() == before + 2
    hybrid["node_sets"]["CPU/Intel/i9/24"] = {99_999}
    assert 99_999 in hybrid_query(hybrid, "CPU")
    assert 99_999 in hybrid_query(hybrid, "CPU/Intel")
    assert 99_999 not in hybrid_query(hybrid, "CPU/AMD")
