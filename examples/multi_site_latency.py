#!/usr/bin/env python3
"""A fast, small-scale rendition of the paper's Figure 10.

Dresses the federation in the paper's evaluation workload (23 EC2
instance-type trees per site, Gaussian tree sizes, password gates) and
measures composite-query latency as the location predicate grows from the
local site to all eight — showing the "max remote RTT + local query time"
structure and the flattening beyond five sites.

Run:  python examples/multi_site_latency.py
"""

from repro import QueryOptions, RBay, RBayConfig
from repro.obs.metrics import LabeledHistogram, format_table, mean, stddev
from repro.workloads import FederationWorkload, QueryWorkload, WorkloadSpec

QUERIES_PER_POINT = 40
ORIGINS = ("Virginia", "Singapore", "SaoPaulo")


def main() -> None:
    plane = RBay(RBayConfig(seed=7, nodes_per_site=25)).build()
    FederationWorkload(plane, WorkloadSpec(password="rbay")).apply()
    plane.sim.run()

    site_names = [site.name for site in plane.registry]
    recorder = LabeledHistogram("query.latency_ms")

    for origin in ORIGINS:
        generator = QueryWorkload(
            plane.streams.stream(f"queries-{origin}"), site_names, k=1
        )
        for n_sites in range(1, len(site_names) + 1):
            for sql, payload in generator.stream(origin, n_sites, QUERIES_PER_POINT):
                result = plane.query(sql, options=QueryOptions(
                    origin=origin, caller=f"user@{origin}", payload=payload))
                recorder.observe(result.latency_ms, origin=origin, sites=n_sites)

    print("Composite query latency vs. number of requesting sites")
    print("(simulated; RTTs from the paper's Table II)\n")
    rows = []
    for n_sites in range(1, len(site_names) + 1):
        row = [f"{n_sites}-site"]
        for origin in ORIGINS:
            samples = recorder.samples(origin=origin, sites=n_sites)
            row.append(f"{mean(samples):7.1f} ± {stddev(samples):5.1f}")
        rows.append(row)
    print(format_table(["location", *(f"{o} (ms)" for o in ORIGINS)], rows))

    print("\nPaper's shape to compare against (Fig. 10): "
          "<200 ms local, rising with site count, ~600 ms and flat for 5-8 sites.")


if __name__ == "__main__":
    main()
