"""Figure 9 (a/b/c): CDF of composite-query latency by origin site.

Paper setup (§IV-C): every site issues evenly distributed composite
queries (three attributes on one instance type, password onGet); the
'location' predicate grows from the local site to all eight.  Reported:
single-site queries are uniformly fast; multi-site queries from Singapore
experience higher latency than from Virginia or Sao Paulo.
"""

import pytest

from benchmarks.conftest import ascii_cdf, print_banner
from repro.obs.metrics import LabeledHistogram, format_table, mean, percentile
from repro.workloads.queries import QueryWorkload

ORIGINS = ("Virginia", "Singapore", "SaoPaulo")
SITE_COUNTS = (1, 2, 4, 8)
QUERIES_PER_POINT = 50


def run_experiment(plane):
    site_names = [site.name for site in plane.registry]
    recorder = LabeledHistogram("fig9.latency_ms")
    for origin in ORIGINS:
        generator = QueryWorkload(plane.streams.stream(f"fig9-{origin}"),
                                  site_names, k=1)
        customer = plane.make_customer(f"fig9-user-{origin}", origin)
        for n_sites in SITE_COUNTS:
            for sql, payload in generator.stream(origin, n_sites, QUERIES_PER_POINT):
                result = customer.query_once(sql, payload=payload).result()
                recorder.observe(result.latency_ms, origin=origin, sites=n_sites)
    return recorder


@pytest.mark.benchmark(group="fig9")
def test_fig9_latency_cdfs(benchmark, dressed_plane):
    plane, _ = dressed_plane
    recorder = benchmark.pedantic(run_experiment, args=(plane,),
                                  rounds=1, iterations=1)

    for origin in ORIGINS:
        print_banner(f"Figure 9: query-latency CDF, users in {origin} (ms)")
        rows = []
        for n_sites in SITE_COUNTS:
            samples = recorder.samples(origin=origin, sites=n_sites)
            rows.append([
                f"{n_sites}-site",
                f"{percentile(samples, 10):.0f}",
                f"{percentile(samples, 50):.0f}",
                f"{percentile(samples, 90):.0f}",
                f"{percentile(samples, 99):.0f}",
            ])
        print(format_table(["location", "p10", "p50", "p90", "p99"], rows))
        print()
        print(ascii_cdf(
            {f"{n}-site": recorder.samples(origin=origin, sites=n) for n in SITE_COUNTS},
            width=58, height=10,
        ))

    # Shape 1: single-site queries are uniformly fast at every origin
    # (intra-site RTTs are sub-millisecond in Table II).
    for origin in ORIGINS:
        assert percentile(recorder.samples(origin=origin, sites=1), 99) < 50.0

    # Shape 2: latency grows with the location predicate.
    for origin in ORIGINS:
        assert (mean(recorder.samples(origin=origin, sites=8))
                > mean(recorder.samples(origin=origin, sites=2))
                > mean(recorder.samples(origin=origin, sites=1)))

    # Shape 3: "users located in Singapore experience higher latencies,
    # compared to the users located in Virginia" for multi-site queries.
    assert (mean(recorder.samples(origin="Singapore", sites=8))
            > mean(recorder.samples(origin="Virginia", sites=8)))

    # Shape 4: CDFs are bounded by the worst RTT from the origin plus
    # protocol slack (Figure 9's x-axis tops out below ~1 s).
    worst = {"Virginia": 275.549, "Singapore": 396.856, "SaoPaulo": 396.856}
    for origin in ORIGINS:
        assert percentile(recorder.samples(origin=origin, sites=8), 99) < worst[origin] * 2.0
