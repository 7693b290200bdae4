"""Concurrent query admission: a bounded in-flight window.

The workload generators want hundreds of queries outstanding at once, but
unbounded concurrency lets a burst monopolize the event loop and blow up
tail latency.  :class:`AdmissionController` is the valve between the two:
callers submit *thunks* that start a query and return its Future; at most
``window`` of them run at any instant and the rest wait in FIFO order.
Each admitted query keeps its own fully isolated state (futures, request
ids, reservations are all per-query already), so admissions never share
mutable protocol state.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.futures import Future


class AdmissionController:
    """FIFO admission valve keeping at most ``window`` queries in flight."""

    def __init__(self, sim: Simulator, window: int = 64,
                 counters: Optional[MetricsRegistry] = None):
        if window < 1:
            raise ValueError(f"admission window must be >= 1 (got {window})")
        self.sim = sim
        self.window = window
        self.counters = counters
        self._in_flight = 0
        self._queue: Deque[Tuple[Callable[[], Future], Future,
                                 str, float]] = deque()
        #: Lifetime admissions (diagnostics / benchmark accounting).
        self.admitted = 0
        #: High-water mark of the wait queue.
        self.max_queued = 0
        #: Per-label queue-wait accounting: ``label -> [count, total_ms,
        #: max_ms]``.  Labels come from :meth:`submit` (the market
        #: workload labels by origin site, so per-site starvation at the
        #: admission valve is visible); unlabeled submissions pool under
        #: ``""``.
        self._waits: Dict[str, list] = {}

    @property
    def in_flight(self) -> int:
        """Queries currently admitted and not yet resolved."""
        return self._in_flight

    @property
    def queued(self) -> int:
        """Submissions waiting for a window slot."""
        return len(self._queue)

    def submit(self, start: Callable[[], Future],
               label: Optional[str] = None) -> Future:
        """Queue ``start`` for admission; resolves with the query's result.

        ``start`` is invoked (inside the event loop) only once a window
        slot is free; its Future's resolution value — result or typed
        error — is forwarded verbatim to the returned Future.  ``label``
        tags the submission for the per-label wait accounting
        (:meth:`wait_stats`).
        """
        done = Future(self.sim)
        self._queue.append((start, done, label or "", self.sim.now))
        self.max_queued = max(self.max_queued, len(self._queue))
        self._pump()
        return done

    def wait_stats(self) -> Dict[str, Dict[str, float]]:
        """``label -> {count, mean_ms, max_ms}`` of admission-queue waits."""
        return {
            label: {
                "count": float(count),
                "mean_ms": total / count if count else 0.0,
                "max_ms": peak,
            }
            for label, (count, total, peak) in sorted(self._waits.items())
        }

    def _pump(self) -> None:
        """Admit queued submissions while window slots are free."""
        while self._in_flight < self.window and self._queue:
            start, done, label, enqueued = self._queue.popleft()
            wait = self._waits.setdefault(label, [0, 0.0, 0.0])
            wait[0] += 1
            wait[1] += self.sim.now - enqueued
            wait[2] = max(wait[2], self.sim.now - enqueued)
            self._in_flight += 1
            self.admitted += 1
            if self.counters is not None:
                self.counters.increment("query.admitted")
            inner = start()

            def _finish(value: Any, done: Future = done) -> None:
                self._in_flight -= 1
                done.try_resolve(value)
                self._pump()

            inner.add_callback(_finish)
