"""Churn capture and prediction (paper §VI future work).

Tracks per-node availability history — lease completions, crash-stops,
tree membership flaps — and predicts near-future stability from it.  The
predictor is deliberately simple and explainable: an exponentially
weighted flap rate plus an uptime ratio, combined into a stability score
in [0, 1] that :mod:`repro.ext.selection` folds into query ranking.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.sim.engine import Simulator


class NodeChurnHistory:
    """Availability history of one node."""

    __slots__ = ("address", "events", "first_seen", "last_up", "up_since",
                 "total_up_ms", "flaps", "lease_completions", "lease_failures")

    def __init__(self, address: int, now: float):
        self.address = address
        self.events: List[Tuple[float, str]] = []
        self.first_seen = now
        self.up_since: Optional[float] = now
        self.last_up = now
        self.total_up_ms = 0.0
        self.flaps = 0
        self.lease_completions = 0
        self.lease_failures = 0

    def record(self, now: float, kind: str) -> None:
        """Append an availability event (up/down/lease outcome)."""
        self.events.append((now, kind))
        if kind == "down":
            if self.up_since is not None:
                self.total_up_ms += now - self.up_since
                self.up_since = None
                self.flaps += 1  # only a real up->down transition counts
        elif kind == "up":
            # Recovery must refresh last_up, or stability scoring treats a
            # node that just came back as last seen at its first join.
            self.last_up = now
            if self.up_since is None:
                self.up_since = now
        elif kind == "lease_ok":
            self.lease_completions += 1
        elif kind == "lease_broken":
            self.lease_failures += 1

    def uptime_ratio(self, now: float) -> float:
        """Fraction of observed lifetime spent up."""
        lifetime = max(now - self.first_seen, 1e-9)
        up = self.total_up_ms
        if self.up_since is not None:
            up += now - self.up_since
        return min(1.0, up / lifetime)

    def flap_rate_per_hour(self, now: float) -> float:
        lifetime_hours = max((now - self.first_seen) / 3_600_000.0, 1e-9)
        return self.flaps / lifetime_hours

    def is_up(self) -> bool:
        return self.up_since is not None


class ChurnTracker:
    """Observes a node population and maintains per-node histories.

    Wire it to the plane with :meth:`observe_membership` calls from
    maintenance ticks, or let experiments call :meth:`mark_down` /
    :meth:`mark_up` directly.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.histories: Dict[int, NodeChurnHistory] = {}

    def history(self, address: int) -> NodeChurnHistory:
        if address not in self.histories:
            self.histories[address] = NodeChurnHistory(address, self.sim.now)
        return self.histories[address]

    # ------------------------------------------------------------------
    def mark_up(self, address: int) -> None:
        self.history(address).record(self.sim.now, "up")

    def mark_down(self, address: int) -> None:
        self.history(address).record(self.sim.now, "down")

    def record_lease_outcome(self, address: int, completed: bool) -> None:
        self.history(address).record(
            self.sim.now, "lease_ok" if completed else "lease_broken"
        )

    def observe_population(self, nodes) -> None:
        """Poll liveness of a node collection (one tick of observation)."""
        for node in nodes:
            history = self.history(node.address)
            if node.alive and not history.is_up():
                history.record(self.sim.now, "up")
            elif not node.alive and history.is_up():
                history.record(self.sim.now, "down")


class ChurnPredictor:
    """Turns histories into stability scores in [0, 1].

    score = uptime * exp(-flaps_per_hour / 2) * lease_success — each
    factor in [0, 1], multiplicative so any bad signal tanks the score.
    Unknown nodes get the configurable prior.
    """

    def __init__(self, tracker: ChurnTracker, prior: float = 0.5):
        self.tracker = tracker
        self.prior = prior

    def stability(self, address: int) -> float:
        """Predicted stability in [0, 1]; unknown nodes get the prior."""
        history = self.tracker.histories.get(address)
        if history is None:
            return self.prior
        now = self.tracker.sim.now
        uptime = history.uptime_ratio(now)
        flap = math.exp(-history.flap_rate_per_hour(now) / 2.0)
        attempts = history.lease_completions + history.lease_failures
        if attempts == 0:
            lease = 1.0
        else:
            # Laplace-smoothed success ratio.
            lease = (history.lease_completions + 1) / (attempts + 2)
        return max(0.0, min(1.0, uptime * flap * lease))

    def rank(self, addresses) -> List[int]:
        """Addresses ordered most-stable first (ties by address)."""
        return sorted(addresses, key=lambda a: (-self.stability(a), a))
