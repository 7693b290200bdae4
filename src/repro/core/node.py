"""RBayNode: a participating server.

Figure 4 of the paper: each RBAY node is (bottom-up) a routing substrate
(Pastry), a key-value map of resource attributes, and the AA runtime that
realizes the admin's policy.  This class glues those substrates together
and adds the node-side mechanics of the query protocol: predicate checks,
AA authorization, and reservations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.aa.runtime import AARuntime
from repro.core.reservation import ReservationTable
from repro.net.site import Site
from repro.pastry.leafset import DEFAULT_LEAF_SET_SIZE
from repro.pastry.node import PastryNode
from repro.pastry.nodeid import NodeId
from repro.query.predicates import Predicate
from repro.scribe.scribe import ScribeApplication
from repro.sim.engine import Simulator

#: The node-level policy attribute: its onGet handler answers "may this
#: query obtain the node?" (paper §III-D step 4ii).
GATE_ATTRIBUTE = "access"


@dataclass
class SubscriptionSpec:
    """How a node decides membership of one tree.

    Membership is re-evaluated on every maintenance tick: the spec's own
    ``default_predicate`` on the current value decides if given (a bucket
    tree's interval is the rule for that tree, whatever policy the
    attribute carries for its threshold trees), else the attribute's
    ``onSubscribe`` / ``onUnsubscribe`` handlers, else static membership.

    ``eager`` subscriptions are additionally re-evaluated the moment their
    attribute's value changes (bucketed range indices need re-bucketing to
    happen before the next query, not at the next tick).
    """

    topic: str
    attribute: Optional[str] = None
    scope: str = "global"
    default_predicate: Optional[Callable[[Any], bool]] = None
    eager: bool = False


class RBayNode(PastryNode):
    """One server participating in the RBAY federation."""

    def __init__(
        self,
        node_id: NodeId,
        site: Site,
        sim: Simulator,
        leaf_set_size: int = DEFAULT_LEAF_SET_SIZE,
        instruction_limit: int = 100_000,
        reservation_hold_ms: float = 2_000.0,
    ):
        super().__init__(node_id, site, leaf_set_size=leaf_set_size)
        self.sim = sim
        self.aa = AARuntime(instruction_limit=instruction_limit)
        self.reservation = ReservationTable(sim, hold_ms=reservation_hold_ms)
        self.subscriptions: Dict[str, SubscriptionSpec] = {}
        self._maintenance_task = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def scribe(self) -> ScribeApplication:
        return self.apps["scribe"]  # type: ignore[return-value]

    def start_maintenance(self, interval_ms: float, jitter_fn=None) -> None:
        """Begin the periodic onTimer cycle (subscription checks, repair)."""
        if self._maintenance_task is not None:
            self._maintenance_task.stop()
        self._maintenance_task = self.sim.schedule_periodic(
            interval_ms, self.maintenance_tick, jitter_fn=jitter_fn
        )

    def stop_maintenance(self) -> None:
        if self._maintenance_task is not None:
            self._maintenance_task.stop()
            self._maintenance_task = None

    # ------------------------------------------------------------------
    # Key-value map facade
    # ------------------------------------------------------------------
    def define_attribute(self, name: str, value: Any, source: Optional[str] = None):
        """Add (or replace) a resource attribute, optionally with handlers."""
        return self.aa.define(name, value, source)

    def remove_attribute(self, name: str) -> bool:
        return self.aa.remove(name)

    def attribute_value(self, name: str) -> Any:
        return self.aa.value(name)

    def update_attribute(self, name: str, value: Any) -> None:
        """Monitoring-infrastructure update path (e.g. the libvirt feed).

        Eager subscriptions on the updated attribute re-evaluate
        immediately, moving the node between value-range buckets in the
        same event rather than at the next maintenance tick.
        """
        self.aa.set_value(name, value)
        for spec in list(self.subscriptions.values()):
            if spec.eager and spec.attribute == name:
                self._evaluate_subscription(spec)

    def has_attribute(self, name: str) -> bool:
        return name in self.aa.attributes

    # ------------------------------------------------------------------
    # Tree membership
    # ------------------------------------------------------------------
    def subscribe(self, spec: SubscriptionSpec) -> None:
        """Register a membership rule and evaluate it immediately."""
        self.subscriptions[spec.topic] = spec
        self._evaluate_subscription(spec)

    def unsubscribe(self, topic: str) -> None:
        self.subscriptions.pop(topic, None)
        if self.scribe.is_member(topic):
            self.scribe.leave(self, topic)

    def _evaluate_subscription(self, spec: SubscriptionSpec) -> None:
        member = self.scribe.is_member(spec.topic)
        if spec.default_predicate is not None:
            value = self.attribute_value(spec.attribute) if spec.attribute else None
            want = bool(spec.default_predicate(value))
        else:
            attribute = self.aa.get(spec.attribute) if spec.attribute else None
            if attribute is not None and (
                attribute.has_handler("onSubscribe") or attribute.has_handler("onUnsubscribe")
            ):
                if not member and self.aa.should_subscribe(spec.attribute, self.address, spec.topic):
                    self.scribe.join(self, spec.topic, scope=spec.scope)
                elif member and self.aa.should_unsubscribe(spec.attribute, self.address, spec.topic):
                    self.scribe.leave(self, spec.topic)
                return
            want = True
        if want and not member:
            self.scribe.join(self, spec.topic, scope=spec.scope)
        elif not want and member:
            self.scribe.leave(self, spec.topic)

    def on_recover(self) -> None:
        """Crash-recovery re-wiring (called by the fault injector after the
        Pastry-level ``announce``).

        Two things are lost while a host is down: joins the network
        suppressed, and eager re-bucketing driven by attribute updates the
        node applied while detached.  ``_evaluate_subscription`` alone
        cannot repair the first — the member flag already matches the
        desired state, so it no-ops — hence the explicit re-join of every
        detached member tree.
        """
        for spec in list(self.subscriptions.values()):
            if spec.eager:
                self._evaluate_subscription(spec)
        self.scribe.rejoin_detached(self)

    def maintenance_tick(self) -> None:
        """One onTimer cycle: attribute timers, membership, overlay and
        tree repair."""
        for name, attribute in list(self.aa.attributes.items()):
            if attribute.has_handler("onTimer"):
                self.aa.on_timer(name)
        for spec in list(self.subscriptions.values()):
            self._evaluate_subscription(spec)
        self.stabilize()
        self.scribe.maintain(self)

    # ------------------------------------------------------------------
    # Query-side checks (protocol step 4)
    # ------------------------------------------------------------------
    def check_predicates(self, predicates: List[Predicate],
                         implied: Sequence[Predicate] = ()) -> bool:
        """Do this node's current attribute values satisfy every predicate?

        ``implied`` predicates are vouched for by tree membership (the
        anycast reached us through that predicate's tree): they are only
        re-checked when the attribute is present locally, guarding against
        stale membership without rejecting nodes that encode the property
        purely as membership.
        """
        for predicate in predicates:
            if not self.has_attribute(predicate.attribute):
                return False
            if not predicate.matches(self.attribute_value(predicate.attribute)):
                return False
        for predicate in implied:
            if self.has_attribute(predicate.attribute) and not predicate.matches(
                self.attribute_value(predicate.attribute)
            ):
                return False
        return True

    def authorize(self, caller: Any, payload: Optional[Dict[str, Any]]) -> Any:
        """Run the gate attribute's onGet.  Returns the exposed value
        (usually the NodeId) or None when access is denied.

        Nodes without a gate handler are open: they expose their Pastry id.
        """
        gate = self.aa.get(GATE_ATTRIBUTE)
        enriched = dict(payload or {})
        enriched.setdefault("now", self.sim.now)
        enriched.setdefault("hour", (self.sim.now / 3_600_000.0) % 24.0)
        if gate is None or not gate.has_handler("onGet"):
            return self.node_id.value
        return self.aa.on_get(GATE_ATTRIBUTE, caller, enriched)

    def consider_for_query(
        self,
        query_id: int,
        caller: Any,
        predicates: List[Predicate],
        payload: Optional[Dict[str, Any]],
        implied: Sequence[Predicate] = (),
    ) -> Optional[Dict[str, Any]]:
        """Full step-4 check: predicates, AA authorization, reservation.

        Returns the candidate entry to put in the anycast buffer, or None.
        """
        self.stats["query_considered"] += 1
        if not self.reservation.is_free() and self.reservation.holder() != query_id:
            return None
        if not self.check_predicates(predicates, implied):
            return None
        exposed = self.authorize(caller, payload)
        if exposed is None:
            self.stats["query_denied"] += 1
            return None
        if not self.reservation.try_reserve(query_id):
            return None
        self.stats["query_reserved"] += 1
        return {
            "node_id": self.node_id.value,
            "address": self.address,
            "site": self.site.name,
            "exposed": exposed,
        }
