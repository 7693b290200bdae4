"""Load-triggered hot-tree rebalancing (D3-Tree style root replication).

RBAY hash-places every attribute tree's rendezvous root, but federation
traffic is zipfian: one popular attribute funnels every probe, anycast,
and ``agg_get`` through a single root node.  This module holds the
decision side of the balancer:

* :class:`RebalanceConfig` — thresholds, window, and hysteresis knobs
  (handed to the plane as ``RBayConfig.rebalance``);
* :class:`Rebalancer` — one per :class:`~repro.scribe.scribe.ScribeApplication`,
  counting the messages each topic handles at this node per fixed window
  (mirrored into the ``scribe.topic_load`` labeled metric of the obs
  plane) and turning consecutive hot/cool windows into deterministic
  promote/demote calls back into the scribe layer.

The mechanism side — the ``replica_promote`` / ``replica_sync`` /
``replica_demote`` / ``replica_get`` protocol, child re-partitioning, and
snapshot coherence — lives in :mod:`repro.scribe.scribe`; replica
*placement* (leaf-set neighbors nearest the topic key) lives in
:meth:`repro.pastry.node.PastryNode.closest_neighbors`.  See
``docs/architecture.md`` §15.

Everything here is clock-driven off maintenance ticks and therefore fully
deterministic: identical runs make identical promote/demote decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class RebalanceConfig:
    """Tuning knobs of the hot-tree balancer (one shared config per plane).

    Passing one (``RBayConfig(rebalance=RebalanceConfig(...))``) is the
    switch: a scribe built without a config carries no rebalancer and
    behaves byte-identically to the pre-rebalance protocol.
    """

    #: Messages handled for a topic within one window at its root at or
    #: above which the window counts as *hot*.
    hot_threshold: int = 200
    #: Messages per window at or below which the window counts as *cool*
    #: (the dead zone between the thresholds resets both streaks — the
    #: hysteresis band that prevents promote/demote flap).
    cool_threshold: int = 50
    #: Fixed accounting window (ms); windows advance on maintenance ticks.
    window_ms: float = 1_000.0
    #: Consecutive hot windows required before a root is replicated.
    hot_windows: int = 2
    #: Consecutive cool windows required before replicas are demoted.
    cool_windows: int = 3
    #: Root replicas spawned per promotion (leaf-set neighbors nearest the
    #: topic key, so repeated selections are stable).
    max_replicas: int = 2
    #: A root with fewer children than this is never replicated — there is
    #: no fan-out to spread, so replication would only add hops.
    min_children: int = 2


class Rebalancer:
    """Per-node load accounting + the promote/demote trigger.

    ``record`` is called from the scribe's message entry points (deliver,
    forward interception, direct tree traffic) for every message that
    names a topic; ``tick`` runs once per maintenance cycle, advancing the
    window when ``window_ms`` has elapsed and applying the hysteresis
    rules at every topic this node currently roots.
    """

    def __init__(self, sim: Any, config: RebalanceConfig, metrics: Any = None):
        self.sim = sim
        self.config = config
        #: Obs-plane :class:`~repro.obs.metrics.MetricsRegistry`; the load
        #: signal is mirrored into the ``scribe.topic_load`` labeled
        #: counter so traces and counter snapshots expose what drove each
        #: promotion.
        self.metrics = metrics
        self._counts: Dict[str, int] = {}
        self._window_start: Optional[float] = None
        self._hot: Dict[str, int] = {}
        self._cool: Dict[str, int] = {}
        #: Lifetime decision counters (also mirrored as
        #: ``scribe.rebalance.promote`` / ``scribe.rebalance.demote``).
        self.promotions = 0
        self.demotions = 0

    # ------------------------------------------------------------------
    def record(self, topic: str) -> None:
        """Count one handled message against ``topic``'s current window."""
        self._counts[topic] = self._counts.get(topic, 0) + 1
        if self.metrics is not None:
            self.metrics.counter("scribe.topic_load").increment(topic=topic)

    def window_load(self, topic: str) -> int:
        """Messages counted against ``topic`` in the (open) current window."""
        return self._counts.get(topic, 0)

    def streaks(self, topic: str) -> Dict[str, int]:
        """Current hysteresis streaks (testing/diagnostics aid)."""
        return {"hot": self._hot.get(topic, 0), "cool": self._cool.get(topic, 0)}

    # ------------------------------------------------------------------
    def tick(self, node: Any, scribe: Any) -> None:
        """One maintenance tick: close the window if due, apply hysteresis.

        Promotion fires at a root after ``hot_windows`` consecutive hot
        windows (given at least ``min_children`` children to spread);
        demotion fires after ``cool_windows`` consecutive cool windows.
        Mid-band windows reset both streaks.
        """
        now = self.sim.now
        if self._window_start is None:
            self._window_start = now
            return
        if now - self._window_start < self.config.window_ms:
            return
        counts, self._counts = self._counts, {}
        self._window_start = now
        cfg = self.config
        for topic, state in sorted(scribe.topics().items()):
            if not state.is_root or not state.in_tree():
                self._hot.pop(topic, None)
                self._cool.pop(topic, None)
                continue
            load = counts.get(topic, 0)
            if load >= cfg.hot_threshold:
                self._hot[topic] = self._hot.get(topic, 0) + 1
                self._cool.pop(topic, None)
            elif load <= cfg.cool_threshold:
                self._cool[topic] = self._cool.get(topic, 0) + 1
                self._hot.pop(topic, None)
            else:
                self._hot.pop(topic, None)
                self._cool.pop(topic, None)
            if (not state.replicas
                    and self._hot.get(topic, 0) >= cfg.hot_windows
                    and len(state.children) >= cfg.min_children):
                if scribe._promote_replicas(node, state):
                    self.promotions += 1
                    self._hot.pop(topic, None)
                    self._mark("promote")
            elif state.replicas and self._cool.get(topic, 0) >= cfg.cool_windows:
                scribe._demote_replicas(node, state)
                self.demotions += 1
                self._cool.pop(topic, None)
                self._mark("demote")

    def _mark(self, action: str) -> None:
        if self.metrics is not None:
            self.metrics.counter("scribe.rebalance").increment(action=action)
