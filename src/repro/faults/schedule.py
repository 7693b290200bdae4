"""Declarative fault schedules: what breaks, when, and for how long.

A :class:`FaultSchedule` is an ordered list of :class:`FaultEvent`\\ s on the
simulated clock — crash-stop / crash-recover of nodes, site-to-site
partitions, and windowed :class:`MessageRule`\\ s that drop, duplicate, or
delay messages matched by (source site, destination site, message kind).
Schedules are plain data: they can be scripted by hand, loaded from JSON,
or generated reproducibly from a seeded RNG with :meth:`FaultSchedule.randomized`.
The :class:`~repro.faults.injector.FaultInjector` executes them.

Determinism contract: a schedule is fully determined by its construction
inputs (the RNG state for :meth:`randomized`), and the injector applies it
with its own dedicated RNG stream — so the same (schedule seed, injection
seed) pair always yields byte-identical fault traces.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

#: Actions a :class:`FaultEvent` can carry.
ACTIONS = (
    "crash",            # crash-stop node ``node``
    "recover",          # crash-recover node ``node``
    "partition_start",  # cut site_a <-> site_b traffic
    "partition_end",    # heal the cut
    "rule_start",       # activate a MessageRule
    "rule_end",         # deactivate it
)


@dataclass(frozen=True)
class MessageRule:
    """A windowed per-message fault rule scoped by (src, dst, kind).

    ``None`` site fields match any site; an empty ``kind_prefix`` matches
    every message.  Kinds are the injector's protocol-kind strings, e.g.
    ``"direct/scribe/agg_push_batch"`` or ``"route/query"`` — prefix-matched so
    ``"direct/query"`` covers every direct query-protocol message.
    """

    name: str = "rule"
    src_site: Optional[str] = None
    dst_site: Optional[str] = None
    kind_prefix: str = ""
    drop_prob: float = 0.0
    duplicate_prob: float = 0.0
    extra_delay_ms: float = 0.0

    def matches(self, src_site: str, dst_site: str, protocol_kind: str) -> bool:
        if self.src_site is not None and src_site != self.src_site:
            return False
        if self.dst_site is not None and dst_site != self.dst_site:
            return False
        return protocol_kind.startswith(self.kind_prefix)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault action at an absolute simulated time."""

    at_ms: float
    action: str
    #: Index into the plane's node list (stable across identical builds).
    node: Optional[int] = None
    site_a: Optional[str] = None
    site_b: Optional[str] = None
    rule: Optional[MessageRule] = None

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")

    def describe(self) -> str:
        """Stable one-line rendering (the unit of the determinism trace)."""
        parts = [f"t={self.at_ms:.3f}", self.action]
        if self.node is not None:
            parts.append(f"node={self.node}")
        if self.site_a is not None:
            parts.append(f"sites={self.site_a}|{self.site_b}")
        if self.rule is not None:
            r = self.rule
            parts.append(
                f"rule={r.name}(src={r.src_site},dst={r.dst_site},"
                f"kind={r.kind_prefix!r},drop={r.drop_prob},"
                f"dup={r.duplicate_prob},delay={r.extra_delay_ms})"
            )
        return " ".join(parts)


@dataclass
class FaultSchedule:
    """An ordered set of fault events plus conveniences to build them."""

    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self):
        self.events = sorted(self.events, key=lambda e: e.at_ms)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- scripted construction -----------------------------------------
    def crash(self, node: int, at_ms: float,
              recover_at_ms: Optional[float] = None) -> "FaultSchedule":
        """Crash-stop ``node`` at ``at_ms``; optionally recover it later."""
        self.events.append(FaultEvent(at_ms, "crash", node=node))
        if recover_at_ms is not None:
            if recover_at_ms <= at_ms:
                raise ValueError("recover must come after the crash")
            self.events.append(FaultEvent(recover_at_ms, "recover", node=node))
        self.events.sort(key=lambda e: e.at_ms)
        return self

    def partition(self, site_a: str, site_b: str, start_ms: float,
                  end_ms: float) -> "FaultSchedule":
        """Cut all traffic between two sites for [start, end)."""
        if end_ms <= start_ms:
            raise ValueError("partition must end after it starts")
        self.events.append(FaultEvent(start_ms, "partition_start",
                                      site_a=site_a, site_b=site_b))
        self.events.append(FaultEvent(end_ms, "partition_end",
                                      site_a=site_a, site_b=site_b))
        self.events.sort(key=lambda e: e.at_ms)
        return self

    def rule(self, rule: MessageRule, start_ms: float,
             end_ms: Optional[float] = None) -> "FaultSchedule":
        """Activate ``rule`` at ``start_ms``; deactivate at ``end_ms``."""
        self.events.append(FaultEvent(start_ms, "rule_start", rule=rule))
        if end_ms is not None:
            if end_ms <= start_ms:
                raise ValueError("rule window must end after it starts")
            self.events.append(FaultEvent(end_ms, "rule_end", rule=rule))
        self.events.sort(key=lambda e: e.at_ms)
        return self

    # -- randomized construction ---------------------------------------
    @classmethod
    def randomized(
        cls,
        rng: random.Random,
        duration_ms: float,
        node_count: int,
        crash_fraction: float = 0.2,
        mean_downtime_ms: float = 3_000.0,
        site_names: Sequence[str] = (),
        partitions: int = 0,
        mean_partition_ms: float = 4_000.0,
        drop_prob: float = 0.0,
        duplicate_prob: float = 0.0,
        extra_delay_ms: float = 0.0,
    ) -> "FaultSchedule":
        """A reproducible random schedule over ``[0, duration_ms)``.

        Every crash gets a matching recover and every partition an end,
        both strictly before ``duration_ms`` — so a plane left running past
        the schedule horizon has healed and can be checked for reconvergence.
        Identical RNG state yields an identical schedule.
        """
        schedule = cls()
        for index in range(node_count):
            if rng.random() >= crash_fraction:
                continue
            at = rng.uniform(0.05, 0.55) * duration_ms
            downtime = min(rng.expovariate(1.0 / mean_downtime_ms),
                           duration_ms - at - 1.0)
            if downtime <= 0:
                continue
            schedule.crash(index, at, recover_at_ms=at + downtime)
        if partitions and len(site_names) >= 2:
            for _ in range(partitions):
                site_a, site_b = rng.sample(list(site_names), 2)
                start = rng.uniform(0.05, 0.45) * duration_ms
                length = min(rng.expovariate(1.0 / mean_partition_ms),
                             duration_ms - start - 1.0)
                if length <= 0:
                    continue
                schedule.partition(site_a, site_b, start, start + length)
        if drop_prob or duplicate_prob or extra_delay_ms:
            schedule.rule(
                MessageRule(name="ambient", drop_prob=drop_prob,
                            duplicate_prob=duplicate_prob,
                            extra_delay_ms=extra_delay_ms),
                start_ms=0.05 * duration_ms,
                end_ms=0.75 * duration_ms,
            )
        return schedule

    def shifted(self, offset_ms: float) -> "FaultSchedule":
        """A copy with every event moved ``offset_ms`` later.

        Schedules are authored on a [0, duration) clock; shift by the
        current simulation time to install one mid-run.
        """
        return FaultSchedule([
            FaultEvent(e.at_ms + offset_ms, e.action, node=e.node,
                       site_a=e.site_a, site_b=e.site_b, rule=e.rule)
            for e in self.events
        ])

    # -- serialization ---------------------------------------------------
    def to_json(self) -> str:
        return json.dumps([asdict(e) for e in self.events], indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        events = []
        for raw in json.loads(text):
            rule: Optional[Dict] = raw.pop("rule", None)
            events.append(FaultEvent(
                rule=MessageRule(**rule) if rule is not None else None, **raw
            ))
        return cls(events)

    def describe(self) -> str:
        """The whole schedule as stable text, one event per line."""
        return "\n".join(e.describe() for e in self.events)
