"""The public, immutable result of one query execution.

:class:`QueryResult` is part of the frozen API surface: its fields are
documented, sequence-valued fields are tuples, and instances cannot be
mutated after construction.  Layers that refine a result (QoS trimming,
economic shopping) derive a new instance with :func:`dataclasses.replace`
instead of editing in place.  The executor builds each result once, at
resolution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one query execution (a single attempt, before backoff).

    Attributes
    ----------
    query_id:
        Federation-unique id; reservations at member nodes are keyed by it.
    entries:
        The selected matches, one dict per node (address, site, attribute
        snapshot, optional ``order_value``), GROUPBY-ordered and truncated
        to the requested ``k``.
    requested:
        The LIMIT in force (``None`` = return every match).
    satisfied:
        True when at least ``requested`` entries were found *and* the
        caller was still waiting — a short or abandoned query commits
        nothing.
    started_at / finished_at:
        Virtual timestamps (ms) bracketing the execution.
    sites_queried / sites_answered / failed_sites:
        Fan-out accounting: targets, responders, and sites that never
        answered within the retry budget.
    tree_sizes:
        Step-1 probe observations, ``{tree topic: size}``.
    visited_members:
        Members visited by the anycast DFS across all sites (protocol
        cost).
    degraded:
        True when ``failed_sites`` is non-empty: the entries are a partial
        view of the federation, not a full one.
    retries:
        Protocol-step retries spent assembling this result.
    """

    query_id: int
    entries: Tuple[Dict[str, Any], ...] = ()
    requested: int | None = None
    satisfied: bool = False
    started_at: float = 0.0
    finished_at: float = 0.0
    sites_queried: Tuple[str, ...] = ()
    sites_answered: Tuple[str, ...] = ()
    tree_sizes: Dict[str, int] = field(default_factory=dict)
    visited_members: int = 0
    degraded: bool = False
    failed_sites: Tuple[str, ...] = ()
    retries: int = 0

    @property
    def latency_ms(self) -> float:
        """End-to-end virtual latency of this execution (ms)."""
        return self.finished_at - self.started_at

    def node_ids(self) -> List[int]:
        """Node ids of the selected entries, in result order."""
        return [entry["node_id"] for entry in self.entries]
