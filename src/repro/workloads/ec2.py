"""The 23 EC2 instance types of the paper's evaluation (§IV-A footnote).

"To simulate Amazon EC2's instance family, we create 23 RBAY aggregation
trees to represent 23 different instance types in each site...  The tree
size follows a Gaussian distribution.  For example, the center tree of
'c3.8xlarge' has more members than the edge tree of 't2.micro' or
'hs1.8xlarge'."
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

#: The 23 instance types, in the paper's order.  Position in this list is
#: the type's coordinate for the Gaussian popularity curve: central indices
#: get more members than the edges.
EC2_INSTANCE_TYPES: Tuple[str, ...] = (
    "t2.micro", "t2.small", "t2.medium",
    "m3.medium", "m3.large", "m3.xlarge", "m3.2xlarge",
    "c3.large", "c3.xlarge", "c3.2xlarge", "c3.4xlarge", "c3.8xlarge",
    "g2.2xlarge",
    "r3.large", "r3.xlarge", "r3.2xlarge", "r3.4xlarge", "r3.8xlarge",
    "i2.xlarge", "i2.2xlarge", "i2.4xlarge", "i2.8xlarge",
    "hs1.8xlarge",
)

#: Representative resource attributes per instance type — "instance types
#: comprise varying combinations of resource attributes".  (vCPU, memory
#: GiB, GPU) follow the real 2015-era EC2 catalog closely enough for
#: attribute mixing.
INSTANCE_SPECS: Dict[str, Dict[str, object]] = {
    "t2.micro": {"vcpu": 1, "mem_gb": 1.0, "gpu": False, "family": "t2"},
    "t2.small": {"vcpu": 1, "mem_gb": 2.0, "gpu": False, "family": "t2"},
    "t2.medium": {"vcpu": 2, "mem_gb": 4.0, "gpu": False, "family": "t2"},
    "m3.medium": {"vcpu": 1, "mem_gb": 3.75, "gpu": False, "family": "m3"},
    "m3.large": {"vcpu": 2, "mem_gb": 7.5, "gpu": False, "family": "m3"},
    "m3.xlarge": {"vcpu": 4, "mem_gb": 15.0, "gpu": False, "family": "m3"},
    "m3.2xlarge": {"vcpu": 8, "mem_gb": 30.0, "gpu": False, "family": "m3"},
    "c3.large": {"vcpu": 2, "mem_gb": 3.75, "gpu": False, "family": "c3"},
    "c3.xlarge": {"vcpu": 4, "mem_gb": 7.5, "gpu": False, "family": "c3"},
    "c3.2xlarge": {"vcpu": 8, "mem_gb": 15.0, "gpu": False, "family": "c3"},
    "c3.4xlarge": {"vcpu": 16, "mem_gb": 30.0, "gpu": False, "family": "c3"},
    "c3.8xlarge": {"vcpu": 32, "mem_gb": 60.0, "gpu": False, "family": "c3"},
    "g2.2xlarge": {"vcpu": 8, "mem_gb": 15.0, "gpu": True, "family": "g2"},
    "r3.large": {"vcpu": 2, "mem_gb": 15.25, "gpu": False, "family": "r3"},
    "r3.xlarge": {"vcpu": 4, "mem_gb": 30.5, "gpu": False, "family": "r3"},
    "r3.2xlarge": {"vcpu": 8, "mem_gb": 61.0, "gpu": False, "family": "r3"},
    "r3.4xlarge": {"vcpu": 16, "mem_gb": 122.0, "gpu": False, "family": "r3"},
    "r3.8xlarge": {"vcpu": 32, "mem_gb": 244.0, "gpu": False, "family": "r3"},
    "i2.xlarge": {"vcpu": 4, "mem_gb": 30.5, "gpu": False, "family": "i2"},
    "i2.2xlarge": {"vcpu": 8, "mem_gb": 61.0, "gpu": False, "family": "i2"},
    "i2.4xlarge": {"vcpu": 16, "mem_gb": 122.0, "gpu": False, "family": "i2"},
    "i2.8xlarge": {"vcpu": 32, "mem_gb": 244.0, "gpu": False, "family": "i2"},
    "hs1.8xlarge": {"vcpu": 16, "mem_gb": 117.0, "gpu": False, "family": "hs1"},
}


def gaussian_tree_weights(sigma_fraction: float = 0.25) -> List[float]:
    """Popularity weight per instance type: a Gaussian over list position."""
    n = len(EC2_INSTANCE_TYPES)
    center = (n - 1) / 2.0
    sigma = max(n * sigma_fraction, 1e-9)
    weights = [math.exp(-((i - center) ** 2) / (2 * sigma * sigma)) for i in range(n)]
    total = sum(weights)
    return [w / total for w in weights]


def gaussian_tree_assignment(
    rng: random.Random,
    count: int,
    sigma_fraction: float = 0.25,
) -> List[str]:
    """Assign ``count`` nodes to instance types with Gaussian popularity."""
    weights = gaussian_tree_weights(sigma_fraction)
    return rng.choices(EC2_INSTANCE_TYPES, weights=weights, k=count)


def instance_attributes(instance_type: str) -> Dict[str, object]:
    """Key-value attributes a node of this instance type carries."""
    spec = INSTANCE_SPECS[instance_type]
    return {
        "instance_type": instance_type,
        "vcpu": float(spec["vcpu"]),
        "mem_gb": float(spec["mem_gb"]),
        "GPU": bool(spec["gpu"]),
        "family": str(spec["family"]),
    }


def random_attribute_pool(rng: random.Random, size: int) -> List[str]:
    """Names for a large synthetic attribute space (Fig. 8c scaling)."""
    vendors = ("Intel", "AMD", "NVIDIA", "Samsung", "Seagate", "Mellanox")
    kinds = ("CPU", "GPU", "Mem", "Disk", "NIC", "Cache")
    names = []
    for i in range(size):
        vendor = vendors[rng.randrange(len(vendors))]
        kind = kinds[rng.randrange(len(kinds))]
        names.append(f"{kind}_{vendor}_{i}")
    return names
