#!/usr/bin/env python3
"""The hybrid naming scheme and query EXPLAIN (paper §III-C).

Builds a device catalog with nested properties (brand → model → cores),
links the trees into the hybrid hierarchy, and shows how a query on the
major attribute ("any Intel CPU") expands over the leaf trees — plus the
EXPLAIN output a query interface produces for the plan.

Run:  python examples/hybrid_naming.py
"""

from repro import QueryOptions, RBay, RBayConfig
from repro.query.plan import plan_query
from repro.query.sql import parse_query

#: brand -> model -> nodes per model (one site's catalog).
CATALOG = {
    "Intel": {"i7": 3, "i5": 2, "Xeon": 2},
    "AMD": {"Ryzen": 3, "Epyc": 2},
}


def main() -> None:
    plane = RBay(RBayConfig(seed=8, nodes_per_site=14)).build()
    plane.sim.run()
    admin = plane.admin("California")
    nodes = iter(plane.site_nodes("California"))

    # Post devices into leaf trees; link leaves under their major trees.
    for brand, models in CATALOG.items():
        plane.hierarchy.link(f"CPU/{brand}", "CPU")
        for model, count in models.items():
            leaf = f"CPU/{brand}/{model}"
            plane.hierarchy.link(leaf, f"CPU/{brand}")
            for _ in range(count):
                node = next(nodes)
                admin.post_resource(node, "cpu_model", f"{brand} {model}",
                                    tree=leaf)
    plane.sim.run()

    print("Hybrid hierarchy:")
    for major in plane.hierarchy.roots():
        print(f"  {major}")
        for child in plane.hierarchy.children(major):
            print(f"    {child}")
            for leaf in plane.hierarchy.children(child):
                print(f"      {leaf}")

    # A new device model plugs in without any new global agreement.
    newcomer = next(nodes)
    plane.hierarchy.link("CPU/Intel/i9", "CPU/Intel")
    admin.post_resource(newcomer, "cpu_model", "Intel i9", tree="CPU/Intel/i9")
    plane.sim.run()
    print("\nAdded a brand-new model: CPU/Intel/i9 (one link, no new majors)")

    # Queries on any level expand recursively over the leaves.
    for sql in (
        "SELECT 20 FROM California WHERE CPU = true;",          # major
        "SELECT 20 FROM California WHERE CPU/Intel = true;",    # brand
        "SELECT 20 FROM California WHERE CPU/Intel/i9 = true;", # model
    ):
        query = parse_query(sql)
        probes = plan_query(query, plane.context).probes("California")
        result = plane.query(sql, options=QueryOptions(origin="California",
                                                       caller="joe"))
        print(f"\n{sql}")
        print(f"  probes {len(probes)} tree(s), found {len(result.entries)} node(s)")
        home = plane.site_nodes("California")[0]
        for entry in result.entries:  # give everything back between queries
            home.send_app(entry["address"], "query", "release",
                          {"query_id": result.query_id})
        plane.sim.run()

    print("\nEXPLAIN for the major-attribute query:")
    print(plan_query(parse_query("SELECT 20 FROM California WHERE CPU = true;"),
                     plane.context).explain())


if __name__ == "__main__":
    main()
