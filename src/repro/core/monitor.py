"""Synthetic monitoring infrastructure.

The paper's prototype reflects attribute updates "through an underlying
monitoring infrastructure (e.g. Libvirt API)".  We have no hypervisors to
poll, so this module synthesizes the same feed: per-node utilization
processes (bounded random walks) and attribute churn generators that push
values into the nodes' key-value maps on a timer.  The churn knobs double
as the workload for the paper's future-work experiment (behaviour "under
different levels of churn in resources and attribute values").
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence

from repro.core.node import RBayNode
from repro.sim.engine import PeriodicTask, Simulator


class UtilizationWalk:
    """A mean-reverting bounded random walk over [0, 100] (% utilization)."""

    def __init__(self, rng: random.Random, start: float, volatility: float = 8.0,
                 reversion: float = 0.15, mean: float = 50.0):
        self.rng = rng
        self.value = max(0.0, min(100.0, start))
        self.volatility = volatility
        self.reversion = reversion
        self.mean = mean

    def step(self) -> float:
        drift = self.reversion * (self.mean - self.value)
        shock = self.rng.gauss(0.0, self.volatility)
        self.value = max(0.0, min(100.0, self.value + drift + shock))
        return self.value


class SyntheticMonitor:
    """Feeds synthetic measurements into a set of nodes' key-value maps."""

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        interval_ms: float = 1_000.0,
    ):
        self.sim = sim
        self.rng = rng
        self.interval_ms = interval_ms
        self._walks: List[tuple] = []  # (node, attribute, walk)
        self._task: Optional[PeriodicTask] = None
        self.updates_pushed = 0

    # ------------------------------------------------------------------
    def track_utilization(
        self,
        node: RBayNode,
        attribute: str = "CPU_utilization",
        start: Optional[float] = None,
        volatility: float = 8.0,
        mean: float = 50.0,
    ) -> None:
        """Attach a utilization walk to ``node.attribute``."""
        initial = start if start is not None else self.rng.uniform(0.0, 100.0)
        walk = UtilizationWalk(self.rng, initial, volatility=volatility, mean=mean)
        if not node.has_attribute(attribute):
            node.define_attribute(attribute, walk.value)
        else:
            node.update_attribute(attribute, walk.value)
        self._walks.append((node, attribute, walk))

    def track_many(self, nodes: Sequence[RBayNode], attribute: str = "CPU_utilization",
                   **kwargs) -> None:
        for node in nodes:
            self.track_utilization(node, attribute, **kwargs)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._task is None:
            self._task = self.sim.schedule_periodic(self.interval_ms, self.tick)

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def tick(self) -> None:
        """Advance every walk and push the new values."""
        for node, attribute, walk in self._walks:
            if not node.alive:
                continue
            node.update_attribute(attribute, walk.step())
            self.updates_pushed += 1


class AttributeChurn:
    """Randomly adds/removes shareable attributes (resource churn).

    Each tick flips a few nodes' attributes between present and absent —
    the "different levels of churn in resources" of the paper's future
    work.  ``rate`` is the expected fraction of tracked nodes churned per
    tick.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        nodes: Sequence[RBayNode],
        attribute: str,
        value_factory: Callable[[random.Random], object],
        rate: float = 0.01,
        interval_ms: float = 1_000.0,
    ):
        self.sim = sim
        self.rng = rng
        self.nodes = list(nodes)
        self.attribute = attribute
        self.value_factory = value_factory
        self.rate = rate
        self.interval_ms = interval_ms
        self._task: Optional[PeriodicTask] = None
        self.flips = 0

    def start(self) -> None:
        if self._task is None:
            self._task = self.sim.schedule_periodic(self.interval_ms, self.tick)

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def tick(self) -> None:
        """Flip a rate-scaled sample of nodes' attribute presence."""
        if not self.nodes or self.rate <= 0:
            return
        count = max(1, int(len(self.nodes) * self.rate))
        for node in self.rng.sample(self.nodes, min(count, len(self.nodes))):
            if not node.alive:
                continue
            if node.has_attribute(self.attribute):
                node.remove_attribute(self.attribute)
            else:
                node.define_attribute(self.attribute, self.value_factory(self.rng))
            self.flips += 1
