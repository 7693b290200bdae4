"""Query workload generators for the latency experiments (§IV-C).

"Every site issues 1,000 evenly distributed queries, each of which
randomly asks for three attributes focusing on one instance type.  We vary
the 'location' predicate from local single to eight sites."
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workloads.ec2 import EC2_INSTANCE_TYPES, INSTANCE_SPECS, gaussian_tree_weights


def composite_query(
    rng: random.Random,
    sites: Optional[Sequence[str]],
    k: int = 1,
    instance_type: Optional[str] = None,
) -> str:
    """Build one of the paper's composite queries.

    Three attributes on one instance type: the type equality plus two
    spec floors the chosen type actually satisfies (so matches exist).
    """
    if instance_type is None:
        weights = gaussian_tree_weights()
        instance_type = rng.choices(EC2_INSTANCE_TYPES, weights=weights, k=1)[0]
    spec = INSTANCE_SPECS[instance_type]
    vcpu_floor = max(1, int(spec["vcpu"]) // 2)
    mem_floor = max(0.5, float(spec["mem_gb"]) / 2.0)
    source = "*" if sites is None else ", ".join(f"'{s}'" for s in sites)
    return (
        f"SELECT {k} FROM {source} "
        f"WHERE instance_type = '{instance_type}' "
        f"AND vcpu >= {vcpu_floor} AND mem_gb >= {mem_floor};"
    )


@dataclass
class QueryWorkload:
    """A reproducible stream of composite queries from chosen origins."""

    rng: random.Random
    all_sites: Sequence[str]
    k: int = 1
    password: str = "rbay"

    def make(self, origin_site: str, n_sites: int) -> Tuple[str, Dict[str, str]]:
        """One query whose location predicate spans ``n_sites`` sites.

        The origin site is always included; the remaining sites are drawn
        at random, matching the paper's "vary the location predicate from
        local single to eight sites".
        """
        if not 1 <= n_sites <= len(self.all_sites):
            raise ValueError(f"n_sites must be in [1, {len(self.all_sites)}]")
        if n_sites == len(self.all_sites):
            sites: Optional[List[str]] = None  # FROM *
        else:
            others = [s for s in self.all_sites if s != origin_site]
            sites = [origin_site] + self.rng.sample(others, n_sites - 1)
        sql = composite_query(self.rng, sites, k=self.k)
        return sql, {"password": self.password}

    def stream(self, origin_site: str, n_sites: int, count: int):
        """Yield ``count`` (sql, payload) pairs."""
        for _ in range(count):
            yield self.make(origin_site, n_sites)
