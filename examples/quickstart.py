#!/usr/bin/env python3
"""Quickstart: federate the paper's eight EC2 sites and run one query.

Builds a small RBAY plane (8 sites x 10 nodes over the Table II latency
matrix), posts a few resources with a password policy, and runs the
paper's Figure 6 composite query across all sites.

Run:  python examples/quickstart.py
"""

from repro import QueryOptions, RBay, RBayConfig
from repro.core import password_policy
from repro.core.node import SubscriptionSpec
from repro.core.naming import site_tree


def main() -> None:
    # 1. Build the federation: 8 EC2 sites from the paper's Table II,
    #    10 nodes per site, deterministic seed.
    plane = RBay(RBayConfig(seed=2017, nodes_per_site=10)).build()

    # 2. Each site's admin posts resources.  Half the nodes carry an
    #    "Intel Core i7"; all track CPU utilization and join their site's
    #    utilization-threshold tree; every node is password-protected.
    rng = plane.streams.stream("example")
    for site in plane.registry:
        admin = plane.admin(site.name)
        for i, node in enumerate(plane.site_nodes(site.name)):
            admin.set_gate_policy(node, password_policy(node.node_id.value, "sesame"))
            node.define_attribute("CPU_utilization", rng.uniform(0.0, 100.0))
            node.subscribe(SubscriptionSpec(
                topic=site_tree(site.name, "CPU_utilization<10%"),
                attribute="CPU_utilization",
                default_predicate=lambda v: v is not None and v < 10.0,
            ))
            if i % 2 == 0:
                admin.post_resource(node, "CPU_model", "Intel Core i7")
    plane.sim.run()  # let joins and aggregates settle

    # 3. Joe (in Virginia) runs the paper's example query across all
    #    sites, through the stable facade: admitted via the bounded
    #    concurrency window, resolving to a frozen QueryResult.
    sql = (
        "SELECT 5 FROM * "
        "WHERE CPU_model = 'Intel Core i7' AND CPU_utilization < 50% "
        "GROUPBY CPU_utilization ASC;"
    )
    print(f"Query: {sql}")
    options = QueryOptions(origin="Virginia", caller="joe",
                           payload={"password": "sesame"})
    result = plane.query(sql, options=options)

    print(f"\nSatisfied: {result.satisfied}  "
          f"(wanted {result.requested}, got {len(result.entries)})")
    print(f"Latency:   {result.latency_ms:.1f} ms simulated "
          f"(sites answered: {len(result.sites_answered)}/8)")
    print("\nGranted nodes (ordered by utilization):")
    for entry in result.entries:
        print(f"  node {entry['node_id'] % 10_000:>5}…  site={entry['site']:<10} "
              f"util={entry['order_value']:.1f}%")

    # 4. The wrong password gets nothing — policy runs on the owners' nodes.
    denied = plane.query(sql, options=QueryOptions(
        origin="Virginia", caller="joe", payload={"password": "wrong"}))
    print(f"\nSame query, wrong password: {len(denied.entries)} nodes (policy enforced)")


if __name__ == "__main__":
    main()
