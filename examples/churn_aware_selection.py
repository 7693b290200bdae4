#!/usr/bin/env python3
"""Churn-aware resource selection (the paper's §VI future work, running).

Half of Oregon's GPU fleet is flaky.  A naive customer takes whatever the
five-step protocol hands back; a stability-aware customer over-asks,
ranks candidates with a churn predictor built from observed history, and
keeps only the most stable nodes.  We then simulate lease-term failures
and compare how many granted leases survive.

Run:  python examples/churn_aware_selection.py
"""

from repro.core import RBay, RBayConfig
from repro.ext.churn import ChurnPredictor, ChurnTracker
from repro.ext.selection import QoSSelector, StabilityAwareCustomer

TRIALS = 25


def ascii_bars(rows, width=50, unit=""):
    """Horizontal bar chart for (label, value) rows."""
    if not rows:
        raise ValueError("no rows to plot")
    peak = max(value for _, value in rows)
    label_width = max(len(label) for label, _ in rows)
    lines = []
    for label, value in rows:
        bar = "#" * (int(value / peak * width) if peak > 0 else 0)
        lines.append(f"{label.ljust(label_width)} |{bar} {value:g}{unit}")
    return "\n".join(lines)


def build():
    plane = RBay(RBayConfig(seed=99, nodes_per_site=14)).build()
    plane.sim.run()
    admin = plane.admin("Oregon")
    nodes = plane.site_nodes("Oregon")
    for node in nodes:
        admin.post_resource(node, "GPU", True)
    plane.sim.run()

    # Half the fleet flaps during an observation window; the tracker sees it.
    rng = plane.streams.stream("flaky")
    flaky = set(rng.sample([n.address for n in nodes], len(nodes) // 2))
    tracker = ChurnTracker(plane.sim)
    for node in nodes:
        tracker.mark_up(node.address)
    for address in flaky:
        for i in range(8):
            plane.sim.schedule(1_000.0 * (2 * i + 1), tracker.mark_down, address)
            plane.sim.schedule(1_000.0 * (2 * i + 2), tracker.mark_up, address)
    plane.settle(20_000.0)
    return plane, tracker, flaky


def lease_survival(plane, customer, flaky, stable_mode):
    rng = plane.streams.stream("failures")
    survived = 0
    for _ in range(TRIALS):
        if stable_mode:
            result = customer.query_stable(
                "SELECT 2 FROM Oregon WHERE GPU = true;").result()
        else:
            result = customer.query_once(
                "SELECT 2 FROM Oregon WHERE GPU = true;").result()
        if not result.satisfied:
            continue
        plane.sim.run()
        # Flaky nodes are very likely to die mid-lease.
        ok = all(not (e["address"] in flaky and rng.random() < 0.8)
                 for e in result.entries)
        survived += ok
        customer.release_all(result)
        plane.sim.run()
    return survived / TRIALS


def main() -> None:
    plane, tracker, flaky = build()
    predictor = ChurnPredictor(tracker)
    home = plane.site_nodes("Oregon")[0]

    print("Observed stability scores (first six GPU nodes):")
    for node in plane.site_nodes("Oregon")[:6]:
        tag = "FLAKY " if node.address in flaky else "stable"
        print(f"  node addr={node.address:<4} [{tag}] "
              f"stability={predictor.stability(node.address):.2f}")

    naive = plane.make_customer("naive", "Oregon", home=home)
    picky = StabilityAwareCustomer("picky", home, plane.streams.stream("p"),
                                   QoSSelector(predictor), overask=3.0)

    naive_rate = lease_survival(plane, naive, flaky, stable_mode=False)
    picky_rate = lease_survival(plane, picky, flaky, stable_mode=True)

    print(f"\nLease survival over {TRIALS} two-node leases:")
    print(ascii_bars([
        ("naive (protocol order)", naive_rate * 100),
        ("stability-aware", picky_rate * 100),
    ], unit="%"))


if __name__ == "__main__":
    main()
