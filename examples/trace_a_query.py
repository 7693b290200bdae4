#!/usr/bin/env python3
"""Trace one query's message flow through the plane.

Builds a plane with span tracing on, records one instant span per
delivered message through ``plane.obs.recorder`` (so deliveries land in
the same store — and the same causal trace — as the protocol's own spans),
runs a single multi-site composite query, and prints a condensed timeline
of every message class it generated — size probes, anycast walks,
commit/release — grouped by kind.  Useful for understanding (and teaching)
the five-step protocol.

Run:  python examples/trace_a_query.py
"""

from collections import Counter

from repro import QueryOptions, RBay, RBayConfig
from repro.workloads import FederationWorkload, WorkloadSpec


def main() -> None:
    plane = RBay(RBayConfig(seed=3, nodes_per_site=12, jitter=False,
                            tracing=True)).build()
    FederationWorkload(plane, WorkloadSpec(password="rbay")).apply()
    plane.sim.run()

    recorder = plane.obs.recorder

    def hook(msg):
        payload = msg.payload if isinstance(msg.payload, dict) else {}
        detail = payload.get("kind") or (payload.get("data") or {}).get("op") or ""
        recorder.instant(f"{msg.kind}/{detail}" if detail else msg.kind,
                         category="net.deliver", src=msg.src, dst=msg.dst)

    plane.network.set_delivery_hook(hook)

    itype = "c3.xlarge"
    sql = f"SELECT 3 FROM * WHERE instance_type = '{itype}' GROUPBY CPU_utilization ASC;"
    print(f"Tracing: {sql}\n")
    result = plane.query(sql, options=QueryOptions(
        origin="Virginia", caller="joe", payload={"password": "rbay"}))
    plane.sim.run()
    plane.network.set_delivery_hook(None)

    print(f"satisfied={result.satisfied}  entries={len(result.entries)}  "
          f"latency={result.latency_ms:.1f} ms  "
          f"members visited={result.visited_members}\n")

    # Condense the timeline: message class -> count.
    deliveries = recorder.spans("net.deliver")
    counts = Counter(span.name for span in deliveries)
    print(f"{len(deliveries)} messages delivered during the query:")
    for label, count in counts.most_common():
        print(f"  {count:>4}  {label}")

    print("\nFirst 12 events of the timeline:")
    for span in deliveries[:12]:
        print(f"  [{span.start_ms:9.3f} ms] {span.name:<28} "
              f"{span.labels['src']} -> {span.labels['dst']}")


if __name__ == "__main__":
    main()
