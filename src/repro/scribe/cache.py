"""Caching layers for tree aggregation and query probes.

RBAY's query protocol starts every query by probing candidate trees for
their aggregate sizes, and every probe re-rolls the accumulators from the
node's raw inputs — even though tree membership and member attributes
change far more slowly than queries arrive.  This module supplies the two
memoization primitives that amortize that cost:

* :class:`SubtreeAggregateCache` — an *exact* memo of each tree node's
  subtree accumulator per aggregate function.  Entries are dirty-flagged
  (invalidated) whenever any input changes — a local member value, a
  child's pushed accumulator, membership, or tree repair — so a valid
  entry is always bit-identical to a from-scratch recomputation.  The
  coherence property suite (``tests/test_scribe_cache_coherence.py``)
  proves this under randomized update/churn interleavings.

* :class:`TTLCache` — a bounded-staleness memo for *finalized* answers
  (root aggregate values, the executor's step-1 tree-size probes).  A hit
  requires the entry to be younger than the caller's ``max_age_ms``
  staleness bound; callers that demand coherent answers pass a bound of
  zero (or omit it), which bypasses the cache entirely.

Both caches optionally report hit/miss/invalidation counts into a
:class:`repro.obs.metrics.MetricsRegistry` under a dotted prefix.

Hot-path note: these caches sit directly on the publish path — every
``set_local`` invalidates, every flush recomputes — so storage is nested
per-topic dicts (no tuple-key allocation per access), counter names are
preformatted once at construction, and :meth:`TTLCache.invalidate_topic`
is O(entries *of that topic*) via a topic index rather than a scan of the
whole cache.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

#: Sentinel distinguishing "no cached entry" from a cached None.
_MISS = object()


class SubtreeAggregateCache:
    """Exact per-(topic, aggregate) memo of subtree accumulators.

    The cache never expires entries on its own: correctness comes purely
    from the owner invalidating on every mutation of the accumulator's
    inputs.  Accumulator values are immutable (numbers, bools, tuples), so
    returning the stored object is safe.
    """

    def __init__(self, counters: Optional[MetricsRegistry] = None,
                 prefix: str = "scribe.acc_cache"):
        # topic -> {agg_name -> accumulator}
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._counters = counters
        self._prefix = prefix
        self._hit_name = prefix + ".hit"
        self._miss_name = prefix + ".miss"
        self._invalidate_name = prefix + ".invalidate"

    # ------------------------------------------------------------------
    def peek(self, topic: str, agg_name: str) -> Any:
        """The memoized accumulator, or the module ``_MISS`` sentinel.

        Counts a hit or a miss; a caller that computes after a miss
        memoizes the result with :meth:`store`.
        """
        per_topic = self._entries.get(topic)
        if per_topic is not None:
            value = per_topic.get(agg_name, _MISS)
            if value is not _MISS:
                if self._counters is not None:
                    self._counters.increment(self._hit_name)
                return value
        if self._counters is not None:
            self._counters.increment(self._miss_name)
        return _MISS

    def store(self, topic: str, agg_name: str, value: Any) -> None:
        """Memoize ``value`` (the computed-after-miss half of :meth:`peek`)."""
        per_topic = self._entries.get(topic)
        if per_topic is None:
            per_topic = self._entries[topic] = {}
        per_topic[agg_name] = value

    def invalidate(self, topic: str, agg_name: Optional[str] = None) -> int:
        """Drop the entry for one aggregate (or every aggregate) of a topic.

        Returns the number of entries actually removed; only those count
        as invalidations in the metrics.
        """
        per_topic = self._entries.get(topic)
        if not per_topic:
            return 0
        if agg_name is not None:
            if agg_name not in per_topic:
                return 0
            del per_topic[agg_name]
            removed = 1
        else:
            removed = len(per_topic)
            per_topic.clear()
        if self._counters is not None:
            self._counters.increment(self._invalidate_name, removed)
        return removed

    def __len__(self) -> int:
        return sum(len(per_topic) for per_topic in self._entries.values())


def _key_topic(key: Hashable) -> Optional[str]:
    """The topic a TTL-cache key belongs to, for the invalidation index.

    Keys are either bare topic names or tuples whose first element is the
    topic; anything else is never matched by topic invalidation (same
    contract as the original full-scan implementation).
    """
    if type(key) is str:
        return key
    if isinstance(key, tuple) and key:
        first = key[0]
        return first if isinstance(first, str) else None
    if isinstance(key, str):
        return key
    return None


class TTLCache:
    """Timestamped key/value memo honoring per-read staleness bounds.

    Entries never expire at write time; each ``get`` decides freshness
    against the caller's own ``max_age_ms``, so one cache can serve
    callers with different staleness tolerances.  A bound that is ``None``
    or non-positive always misses — TTL=0 means "only coherent answers",
    and those must come from the authoritative path.
    """

    def __init__(self, counters: Optional[MetricsRegistry] = None,
                 prefix: str = "ttl_cache"):
        self._entries: Dict[Hashable, Tuple[Any, float]] = {}
        # topic -> set of live keys for that topic (invalidation index).
        self._by_topic: Dict[str, set] = {}
        self._counters = counters
        self._prefix = prefix
        self._hit_name = prefix + ".hit"
        self._miss_name = prefix + ".miss"
        self._invalidate_name = prefix + ".invalidate"

    # ------------------------------------------------------------------
    def get(self, key: Hashable, now: float,
            max_age_ms: Optional[float]) -> Tuple[bool, Any]:
        """Look up ``key``; returns ``(hit, value)``.

        A hit requires an entry stored no more than ``max_age_ms`` ago.
        """
        counters = self._counters
        if max_age_ms is None or max_age_ms <= 0:
            if counters is not None:
                counters.increment(self._miss_name)
            return False, None
        entry = self._entries.get(key)
        if entry is None:
            if counters is not None:
                counters.increment(self._miss_name)
            return False, None
        value, stored_at = entry
        if now - stored_at > max_age_ms:
            if counters is not None:
                counters.increment(self._miss_name)
            return False, None
        if counters is not None:
            counters.increment(self._hit_name)
        return True, value

    def put(self, key: Hashable, value: Any, now: float) -> None:
        """Store ``value`` for ``key``, stamped with the current time."""
        if key not in self._entries:
            topic = _key_topic(key)
            if topic is not None:
                bucket = self._by_topic.get(topic)
                if bucket is None:
                    bucket = self._by_topic[topic] = set()
                bucket.add(key)
        self._entries[key] = (value, now)

    # ------------------------------------------------------------------
    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns True when something was removed."""
        if key in self._entries:
            del self._entries[key]
            topic = _key_topic(key)
            if topic is not None:
                bucket = self._by_topic.get(topic)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del self._by_topic[topic]
            if self._counters is not None:
                self._counters.increment(self._invalidate_name)
            return True
        return False

    def invalidate_topic(self, topic: str) -> int:
        """Drop every entry keyed by ``topic`` — either the bare topic name
        or a tuple whose first element is the topic.  Returns the count."""
        keys = self._by_topic.pop(topic, None)
        if not keys:
            return 0
        entries = self._entries
        for key in keys:
            del entries[key]
        if self._counters is not None:
            self._counters.increment(self._invalidate_name, len(keys))
        return len(keys)

    def fresh_items(self, now: float, max_age_ms: Optional[float]) -> Dict[Hashable, Any]:
        """All entries still within the staleness bound (for planner hints)."""
        if max_age_ms is None or max_age_ms <= 0:
            return {}
        return {k: v for k, (v, stored_at) in self._entries.items()
                if now - stored_at <= max_age_ms}

    def __len__(self) -> int:
        return len(self._entries)
