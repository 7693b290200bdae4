"""The introduction's simulation claims (§I, last paragraph).

"Additional simulations suggest that RBAY will continue to perform well,
even as datacenter size increases to tens of thousands scale and resource
attribute increases to hundreds of thousands."

Two claims, two measurements:

* datacenter scale — routing on a 16k/32k-node overlay stays within the
  O(log N) hop bound (complements Fig. 8a's sweep);
* attribute scale — a node carrying 100,000 active attributes stays
  memory-bounded and serves onGet in constant time.
"""

import math
import time

import pytest

from benchmarks.conftest import deep_sizeof, print_banner
from benchmarks.test_fig8a_scale_nodes import hops_for_size
from repro.aa.runtime import AARuntime
from repro.core.policies import password_policy
from repro.obs.metrics import format_table

NODE_SCALES = (16_384, 32_768)
ATTRIBUTE_SCALE = 100_000
GET_SAMPLES = 2_000


def measure_attribute_scale():
    runtime = AARuntime()
    source = password_policy(27, "pw")
    for i in range(ATTRIBUTE_SCALE):
        runtime.define(f"attr_{i:06d}", float(i), source)
    footprint = deep_sizeof(runtime)

    # Wall-clock per-get latency over random attributes (host time: the
    # handler runs in-process; this is an implementation-cost check, not a
    # simulated-latency number).
    import random

    rng = random.Random(0)
    names = [f"attr_{rng.randrange(ATTRIBUTE_SCALE):06d}" for _ in range(GET_SAMPLES)]
    start = time.perf_counter()
    hits = 0
    for name in names:
        if runtime.on_get(name, "caller", {"password": "pw"}) is not None:
            hits += 1
    elapsed = time.perf_counter() - start
    return {
        "footprint_mb": footprint / 1e6,
        "per_get_us": elapsed / GET_SAMPLES * 1e6,
        "hits": hits,
    }


def run_experiment():
    hops = {n: hops_for_size(n, seed=9) for n in NODE_SCALES}
    attributes = measure_attribute_scale()
    return {"hops": hops, "attributes": attributes}


@pytest.mark.benchmark(group="intro-scale")
def test_intro_scale_claims(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    print_banner("Intro claim 1: routing at tens-of-thousands node scale")
    rows = [
        [n, f"{results['hops'][n]:.2f}", f"{math.log(n, 16):.2f}"]
        for n in NODE_SCALES
    ]
    print(format_table(["#nodes", "mean hops", "log16(N)"], rows))

    print_banner(f"Intro claim 2: one node with {ATTRIBUTE_SCALE:,} active attributes")
    a = results["attributes"]
    print(format_table(
        ["metric", "value"],
        [
            ["memory footprint", f"{a['footprint_mb']:.0f} MB"],
            ["onGet latency (host)", f"{a['per_get_us']:.1f} us"],
            ["gets authorized", f"{a['hits']}/{GET_SAMPLES}"],
        ],
    ))

    # Claim 1: still O(log N) at 32k nodes.
    for n in NODE_SCALES:
        assert results["hops"][n] <= math.ceil(math.log(n, 16)) + 1.5
    # Claim 2: constant-time dispatch (dict lookup + budgeted handler) and
    # linear, modest memory — ~1 KB/attribute in CPython.
    assert a["hits"] == GET_SAMPLES
    assert a["per_get_us"] < 1_000.0
    assert a["footprint_mb"] < 250.0
