"""Shared benchmark fixtures and reporting helpers.

Every benchmark prints the rows/series the corresponding paper table or
figure reports, then asserts the *shape* claims (who wins, rough factors,
where curves flatten).  Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Optional, Sequence, Set

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.workloads.generator import FederationWorkload, WorkloadSpec


def build_dressed_plane(seed: int = 2017, nodes_per_site: int = 25,
                        jitter: bool = True, **config_kwargs):
    """An 8-site plane dressed in the paper's evaluation workload."""
    plane = RBay(RBayConfig(seed=seed, nodes_per_site=nodes_per_site,
                            jitter=jitter, **config_kwargs)).build()
    workload = FederationWorkload(plane, WorkloadSpec(password="rbay")).apply()
    plane.sim.run()
    return plane, workload


@pytest.fixture(scope="session")
def dressed_plane():
    """Session-scoped federation for the latency benchmarks (Figs 9-11)."""
    return build_dressed_plane()


def print_banner(title: str) -> None:
    print()
    print("=" * 74)
    print(title)
    print("=" * 74)


def ascii_cdf(
    series: Dict[str, Sequence[float]],
    width: int = 60,
    height: int = 12,
    x_label: str = "ms",
) -> str:
    """Render one or more CDFs on a shared axis, so a figure's shape is
    visible straight from ``pytest -s`` output.

    Each series gets a marker character; the legend maps markers to labels.
    """
    if not series:
        raise ValueError("no series to plot")
    markers = "*o+x#@%&"
    all_values = [v for values in series.values() for v in values]
    if not all_values:
        raise ValueError("series are empty")
    x_min, x_max = min(all_values), max(all_values)
    span = max(x_max - x_min, 1e-9)

    grid = [[" "] * width for _ in range(height)]
    for index, (label, values) in enumerate(sorted(series.items())):
        marker = markers[index % len(markers)]
        for rank, value in enumerate(sorted(values), start=1):
            col = int((value - x_min) / span * (width - 1))
            row = height - 1 - int(rank / len(values) * (height - 1))
            grid[row][col] = marker

    lines = []
    for i, row in enumerate(grid):
        fraction = 1.0 - i / (height - 1)
        lines.append(f"{fraction:4.2f} |" + "".join(row))
    lines.append("     +" + "-" * width)
    left = f"{x_min:.0f}{x_label}"
    right = f"{x_max:.0f}{x_label}"
    pad = max(1, width - len(left) - len(right))
    lines.append("      " + left + " " * pad + right)
    legend = "  ".join(
        f"{markers[i % len(markers)]}={label}"
        for i, label in enumerate(sorted(series)))
    lines.append("      " + legend)
    return "\n".join(lines)


def deep_sizeof(obj: Any, seen: Optional[Set[int]] = None) -> int:
    """Recursive ``getsizeof`` with cycle/shared-object protection.

    ``sys.getsizeof`` is shallow; this walks containers and object
    attributes, visiting each object once, to approximate the resident
    footprint of an attribute store (Figure 8c).  Shared objects (compiled
    chunk ASTs, the shared sandbox) are counted once across a whole store,
    mirroring how a real runtime shares bytecode.
    """
    if seen is None:
        seen = set()
    identity = id(obj)
    if identity in seen:
        return 0
    seen.add(identity)
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(
            deep_sizeof(k, seen) + deep_sizeof(v, seen) for k, v in obj.items()
        )
    elif isinstance(obj, (list, tuple, set, frozenset)):
        size += sum(deep_sizeof(item, seen) for item in obj)
    elif isinstance(obj, (str, bytes, bytearray, int, float, complex, bool)):
        pass  # leaf
    else:
        if hasattr(obj, "__dict__"):
            size += deep_sizeof(vars(obj), seen)
        slots = getattr(type(obj), "__slots__", None)
        if slots:
            for name in slots if not isinstance(slots, str) else (slots,):
                if hasattr(obj, name):
                    size += deep_sizeof(getattr(obj, name), seen)
    return size
