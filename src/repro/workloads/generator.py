"""Federation workload: dress a built plane up as the paper's testbed.

Reproduces §IV-A: every node gets an instance type drawn from the Gaussian
popularity curve, joins its site's instance-type tree, carries the standard
attribute mix plus optional filler attributes (the paper's 1,000 resource
attributes per node), runs a password gate policy, and participates in
utilization-threshold trees maintained by onSubscribe/onUnsubscribe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.naming import instance_tree, predicate_tree_name, site_tree
from repro.core.node import RBayNode, SubscriptionSpec
from repro.core.plane import RBay
from repro.core.policies import password_policy, utilization_subscription
from repro.workloads.ec2 import (
    EC2_INSTANCE_TYPES,
    gaussian_tree_assignment,
    instance_attributes,
)


@dataclass
class WorkloadSpec:
    """Parameters for the evaluation workload."""

    password: str = "rbay"
    #: Extra synthetic attributes defined per node (the paper uses 1,000;
    #: tests use fewer).
    filler_attributes: int = 0
    #: CPU-utilization threshold trees to maintain, in percent.
    utilization_thresholds: Sequence[float] = (10.0,)
    #: Install the password gate policy on every node.
    gate_policies: bool = True
    #: Use AA handlers (onSubscribe/onUnsubscribe) for threshold trees;
    #: False falls back to plain predicate membership (ablation knob).
    active_subscriptions: bool = True


class FederationWorkload:
    """Applies a :class:`WorkloadSpec` to an :class:`RBay` plane."""

    def __init__(self, plane: RBay, spec: Optional[WorkloadSpec] = None):
        self.plane = plane
        self.spec = spec if spec is not None else WorkloadSpec()
        self.instance_of: Dict[int, str] = {}  # node address -> type

    # ------------------------------------------------------------------
    def apply(self) -> "FederationWorkload":
        """Configure every node; run the simulator afterwards to settle."""
        rng = self.plane.streams.stream("workload")
        spec = self.spec
        for site in self.plane.registry:
            nodes = self.plane.site_nodes(site.name)
            admin = self.plane.admins[site.name]
            types = gaussian_tree_assignment(rng, len(nodes))
            for node, itype in zip(nodes, types):
                self.instance_of[node.address] = itype
                self._configure_node(admin, node, itype, rng)
        return self

    def _configure_node(self, admin, node: RBayNode, itype: str, rng) -> None:
        spec = self.spec
        for name, value in instance_attributes(itype).items():
            node.define_attribute(name, value)
        if spec.gate_policies:
            admin.set_gate_policy(
                node, password_policy(node.node_id.value, spec.password)
            )
        # Instance-type tree membership (site-scoped, per §IV-A).
        node.subscribe(SubscriptionSpec(
            topic=instance_tree(node.site.name, itype),
            attribute="instance_type",
            default_predicate=lambda v, t=itype: v == t,
        ))
        # Utilization threshold trees.
        node.define_attribute(
            "CPU_utilization",
            rng.uniform(0.0, 100.0),
            utilization_subscription(spec.utilization_thresholds[0])
            if spec.active_subscriptions and spec.utilization_thresholds
            else None,
        )
        for threshold in spec.utilization_thresholds:
            node.subscribe(SubscriptionSpec(
                topic=site_tree(node.site.name,
                                predicate_tree_name("CPU_utilization", "<", threshold)),
                attribute="CPU_utilization",
                default_predicate=(
                    None
                    if spec.active_subscriptions
                    else (lambda v, t=threshold: v is not None and v < t)
                ),
            ))
        for i in range(spec.filler_attributes):
            node.define_attribute(f"attr_{i:04d}", rng.random())

    # ------------------------------------------------------------------
    def settle(self, duration_ms: float = 2_000.0) -> None:
        self.plane.settle(duration_ms)

    def instance_population(self) -> Dict[str, int]:
        """Members per instance type across the federation."""
        counts: Dict[str, int] = {t: 0 for t in EC2_INSTANCE_TYPES}
        for itype in self.instance_of.values():
            counts[itype] += 1
        return counts

    def site_instance_population(self, site_name: str) -> Dict[str, int]:
        counts: Dict[str, int] = {t: 0 for t in EC2_INSTANCE_TYPES}
        for node in self.plane.site_nodes(site_name):
            itype = self.instance_of.get(node.address)
            if itype is not None:
                counts[itype] += 1
        return counts
