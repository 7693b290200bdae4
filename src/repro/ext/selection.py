"""QoS-aware resource selection (paper §VI future work).

"Such factors can also be used to better select appropriate resources in
response to user queries, that is, to further optimize the quality of
results for queries."  :class:`QoSSelector` re-ranks query candidates by
predicted stability (optionally blended with the query's own GROUPBY
value); :class:`StabilityAwareCustomer` is a drop-in customer that
over-asks, keeps the most stable k, and releases the rest.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, Dict, List, Optional

from repro.core.client import Customer
from repro.core.node import RBayNode
from repro.ext.churn import ChurnPredictor
from repro.query.options import QueryOptions
from repro.query.result import QueryResult
from repro.sim.futures import Future


class QoSSelector:
    """Ranks query candidate entries by predicted stability."""

    def __init__(self, predictor: ChurnPredictor, stability_weight: float = 1.0):
        if not 0.0 <= stability_weight <= 1.0:
            raise ValueError("stability_weight must be within [0, 1]")
        self.predictor = predictor
        self.stability_weight = stability_weight

    def score(self, entry: Dict[str, Any]) -> float:
        """Higher is better."""
        stability = self.predictor.stability(entry["address"])
        order_value = entry.get("order_value")
        if order_value is None or not isinstance(order_value, (int, float)):
            return stability
        # Blend stability with the query's own preference signal, squashing
        # the order value into (0, 1) so the two are commensurable.
        preference = 1.0 / (1.0 + abs(float(order_value)))
        w = self.stability_weight
        return w * stability + (1.0 - w) * preference

    def select(self, entries: List[Dict[str, Any]], k: Optional[int]):
        """Split into (kept, surplus), keeping the k best-scored entries.

        ``k`` must be ``None`` (keep everything) or non-negative: a
        negative ``k`` would silently slice ``ordered[:k]`` — keeping
        all-but-|k| and "releasing" the *best* candidates.
        """
        if k is not None and k < 0:
            raise ValueError(f"k must be >= 0 (got {k})")
        ordered = sorted(entries, key=lambda e: (-self.score(e), e["address"]))
        cutoff = len(ordered) if k is None else k
        return ordered[:cutoff], ordered[cutoff:]


class StabilityAwareCustomer(Customer):
    """A customer that over-provisions and keeps only the stablest nodes.

    Asks the plane for ``k * overask`` candidates, ranks them with the
    :class:`QoSSelector`, keeps the best ``k`` (releasing the rest), and
    reports the kept entries in the resolved QueryResult.
    """

    def __init__(
        self,
        name: str,
        home: RBayNode,
        rng: random.Random,
        selector: QoSSelector,
        overask: float = 2.0,
        **kwargs: Any,
    ):
        super().__init__(name, home, rng, **kwargs)
        if overask < 1.0:
            raise ValueError("overask must be >= 1.0")
        self.selector = selector
        self.overask = overask

    def query_stable(
        self,
        sql: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Future:
        """Like query_once, but stability-ranked and trimmed to k."""

        def _pick(result: QueryResult, wanted: Optional[int]) -> QueryResult:
            kept, surplus = self.selector.select(list(result.entries), wanted)
            self.release(result, surplus)
            return replace(result, entries=tuple(kept), requested=wanted,
                           satisfied=wanted is None or len(kept) >= wanted)

        return self.shop(sql, self.overask, QueryOptions(
            payload=payload, caller=self.name), _pick)
