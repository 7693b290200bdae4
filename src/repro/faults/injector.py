"""Deterministic fault injection driven by the simulation clock.

The :class:`FaultInjector` executes a :class:`~repro.faults.schedule.FaultSchedule`
against a built plane: it crash-stops and crash-recovers nodes (detaching /
reattaching them at a stable address and pausing their maintenance timers),
cuts and heals site-to-site partitions, and applies per-message drop /
duplicate / delay rules through the network's ``fault_filter`` hook.

Everything is deterministic: schedule events fire through the simulator's
ordered event loop, and per-message coin flips come from one dedicated RNG
stream, so identical (seed, schedule) pairs replay byte-identically — the
property the chaos determinism test asserts via :meth:`trace_text`.
"""

from __future__ import annotations

import random
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set

from repro.faults.schedule import FaultEvent, FaultSchedule, MessageRule
from repro.net.message import Message
from repro.net.network import FaultDecision, Host, Network
from repro.obs import Observability
from repro.sim.engine import Simulator


def protocol_kind(msg: Message) -> str:
    """A human-meaningful kind string for rule matching and traces.

    Routed messages render as ``route/<app>/<op>``, direct messages as
    ``direct/<app>/<kind>``; anything else falls back to the wire kind.
    """
    payload = msg.payload or {}
    if msg.kind == "pastry.route":
        data = payload.get("data") or {}
        return f"route/{payload.get('app')}/{data.get('op', '')}"
    if msg.kind == "pastry.direct":
        return f"direct/{payload.get('app')}/{payload.get('kind', '')}"
    return msg.kind


class FaultInjector:
    """Applies a fault schedule to a live plane, deterministically.

    Parameters
    ----------
    sim, network:
        The plane's simulator and network (the injector installs itself as
        the network's ``fault_filter``).
    nodes:
        The plane's node list; schedule events address nodes by index here,
        which is stable across identical builds.
    rng:
        Dedicated stream for per-message coin flips (drop/duplicate).  Keep
        it separate from every other stream or fault draws will perturb the
        rest of the simulation.
    churn:
        Optional :class:`repro.ext.churn.ChurnTracker` kept in sync with
        crash/recover events (feeds stability-aware selection).
    obs:
        The plane's telemetry handle: the injector maintains the
        ``faults.*`` counter family in its registry, and fault activations
        show up as instant events in exported traces.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: Sequence[Any],
        rng: Optional[random.Random] = None,
        churn: Optional[Any] = None,
        obs: Optional[Observability] = None,
    ):
        self.sim = sim
        self.obs = obs if obs is not None else Observability()
        self.network = network
        self.nodes = list(nodes)
        self.rng = rng if rng is not None else random.Random(0)
        self.churn = churn
        self.partitions: Set[FrozenSet[str]] = set()
        self.rules: List[MessageRule] = []
        self.crashed: Set[int] = set()  # node indices currently down
        #: Maintenance cadence saved at crash time, restored on recovery.
        self._paused_maintenance: Dict[int, tuple] = {}
        #: Applied schedule events, as stable strings (determinism trace).
        self.trace: List[str] = []
        #: Observers called with each :class:`FaultEvent` right after it is
        #: applied (the invariant sanitizer's post-fault-activation hook).
        #: Listeners must only observe — never schedule or mutate.
        self.listeners: List[Any] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def install(self, schedule: Optional[FaultSchedule] = None) -> "FaultInjector":
        """Hook the network and (optionally) schedule a fault script."""
        self.network.fault_filter = self.on_send
        if schedule is not None:
            self.load(schedule)
        return self

    def load(self, schedule: FaultSchedule) -> None:
        """Schedule every event of ``schedule`` on the simulator clock."""
        for event in schedule:
            self.sim.schedule_at(max(event.at_ms, self.sim.now), self.apply, event)

    # ------------------------------------------------------------------
    # Schedule execution
    # ------------------------------------------------------------------
    def apply(self, event: FaultEvent) -> None:
        """Apply one fault event now (normally called by the event loop)."""
        if event.action == "crash":
            self.crash_node(event.node)
        elif event.action == "recover":
            self.recover_node(event.node)
        elif event.action == "partition_start":
            self.start_partition(event.site_a, event.site_b)
        elif event.action == "partition_end":
            self.end_partition(event.site_a, event.site_b)
        elif event.action == "rule_start":
            self.start_rule(event.rule)
        elif event.action == "rule_end":
            self.end_rule(event.rule)
        self.obs.recorder.instant(f"fault.{event.action}", category="fault",
                                      detail=event.describe())
        self._record(event.describe())
        for listener in self.listeners:
            listener(event)

    def crash_node(self, index: int) -> None:
        """Crash-stop a node: detach it and freeze its periodic work."""
        if index in self.crashed:
            return
        node = self.nodes[index]
        task = getattr(node, "_maintenance_task", None)
        if task is not None and not task.stopped:
            self._paused_maintenance[index] = (task.interval, task.jitter_fn)
            node.stop_maintenance()
        self.network.detach(node)
        self.crashed.add(index)
        if self.churn is not None:
            self.churn.mark_down(node.address)
        self._count("faults.crash")

    def recover_node(self, index: int) -> None:
        """Crash-recover a node at its old address.

        State survives the outage (a restart with persisted state); the
        node's next maintenance ticks re-push aggregates and re-join any
        tree whose parent died meanwhile.
        """
        if index not in self.crashed:
            return
        node = self.nodes[index]
        self.network.reattach(node)
        self.crashed.discard(index)
        if hasattr(node, "announce"):
            # Peers purged us while we were down; re-introduce ourselves so
            # routes (and hence tree rendezvous) reach this node again.
            node.announce()
        if hasattr(node, "on_recover"):
            # Application-level recovery: replay suppressed tree joins and
            # eager re-bucketing (updates applied while down moved values
            # across bucket boundaries without the join going anywhere).
            node.on_recover()
        paused = self._paused_maintenance.pop(index, None)
        if paused is not None:
            interval, jitter_fn = paused
            node.start_maintenance(interval, jitter_fn=jitter_fn)
        if self.churn is not None:
            self.churn.mark_up(node.address)
        self._count("faults.recover")

    def start_partition(self, site_a: str, site_b: str) -> None:
        self.partitions.add(frozenset((site_a, site_b)))
        self._count("faults.partition_start")

    def end_partition(self, site_a: str, site_b: str) -> None:
        self.partitions.discard(frozenset((site_a, site_b)))
        self._count("faults.partition_end")

    def start_rule(self, rule: MessageRule) -> None:
        self.rules.append(rule)
        self._count("faults.rule_start")

    def end_rule(self, rule: MessageRule) -> None:
        if rule in self.rules:
            self.rules.remove(rule)
        self._count("faults.rule_end")

    def partitioned(self, site_a: str, site_b: str) -> bool:
        return frozenset((site_a, site_b)) in self.partitions

    # ------------------------------------------------------------------
    # Per-message interception (Network.fault_filter)
    # ------------------------------------------------------------------
    def on_send(self, src: Host, dst: Host, msg: Message) -> Optional[FaultDecision]:
        """Decide one message's fate; None means deliver normally."""
        src_site = src.site.name
        dst_site = dst.site.name
        if src_site != dst_site and frozenset((src_site, dst_site)) in self.partitions:
            self._count("faults.partition_drop")
            return FaultDecision(drop=True)
        if not self.rules:
            return None
        kind = protocol_kind(msg)
        extra_delay = 0.0
        duplicates = 0
        for rule in self.rules:
            if not rule.matches(src_site, dst_site, kind):
                continue
            if rule.drop_prob and self.rng.random() < rule.drop_prob:
                self._count("faults.msg_dropped")
                return FaultDecision(drop=True)
            if rule.duplicate_prob and self.rng.random() < rule.duplicate_prob:
                duplicates += 1
                self._count("faults.msg_duplicated")
            if rule.extra_delay_ms:
                extra_delay += rule.extra_delay_ms
                self._count("faults.msg_delayed")
        if extra_delay or duplicates:
            return FaultDecision(extra_delay_ms=extra_delay, duplicates=duplicates)
        return None

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _count(self, name: str) -> None:
        self.obs.metrics.increment(name)

    def _record(self, line: str) -> None:
        self.trace.append(f"[{self.sim.now:.3f}] {line}")

    def trace_text(self) -> str:
        """Applied fault events as stable text (byte-comparable)."""
        return "\n".join(self.trace)
