"""Truncated exponential backoff for query conflicts (paper §III-D).

"After c fails, a random number of slot times between 0 and 2^c - 1 is
chosen" — aggressive customers accumulate failures and back off for longer,
which both avoids the deadlock scenario and biases access toward less
aggressive customers.

:func:`retry_step` is the loop the query executor runs every lossy
protocol step through; it draws its delays from the same backoff.
"""

from __future__ import annotations

import random
from typing import Any, Callable


class TruncatedExponentialBackoff:
    """Computes re-query delays; one instance per in-flight customer request."""

    def __init__(
        self,
        rng: random.Random,
        slot_ms: float = 100.0,
        max_exponent: int = 10,
        max_attempts: int = 16,
    ):
        if slot_ms <= 0:
            raise ValueError("slot_ms must be positive")
        if max_exponent < 1:
            raise ValueError("max_exponent must be >= 1")
        self._rng = rng
        self.slot_ms = slot_ms
        self.max_exponent = max_exponent
        self.max_attempts = max_attempts
        self.failures = 0

    def record_failure(self) -> None:
        self.failures += 1

    def exhausted(self) -> bool:
        return self.failures >= self.max_attempts

    def next_delay_ms(self) -> float:
        """Delay before the next re-query, given the failures so far.

        With zero recorded failures the delay is zero: the paper's "after
        c fails" semantics mean a first attempt goes out immediately
        (2^0 - 1 = 0 slots), not after up to ``2 * slot_ms``.
        """
        if self.failures <= 0:
            return 0.0
        exponent = min(self.failures, self.max_exponent)
        slots = self._rng.randint(0, (1 << exponent) - 1)
        return slots * self.slot_ms

    def reset(self) -> None:
        self.failures = 0


def retry_step(sim, backoff: TruncatedExponentialBackoff, step: str,
               attempt: Callable[..., None], on_exhausted: Callable[..., None],
               tally: Any, obs: Any, parent: Any = None,
               **labels: Any) -> Callable[..., None]:
    """The one retry loop for a query-protocol step (paper §III-D).

    A step — the remote site request, the size-probe round, one tree's
    anycast — supplies ``attempt`` (send it) and ``on_exhausted`` (carry on
    once the budget is spent) and calls the returned ``failed(*args)``
    whenever an attempt is lost.  Everything after that happens only here:
    failure accounting, the ``query.retry.<step>`` counter, the result's
    retry tally (``tally.retries_spent``), the backoff draw, the optional
    ``query.backoff`` span (under ``parent``: a retry resumes from a timer,
    with no span context), the timer and the re-attempt.  ``args`` go to
    the re-attempt or to ``on_exhausted`` (the probe round passes the
    trees still unanswered).
    """

    def failed(*args: Any) -> None:
        backoff.record_failure()
        if backoff.exhausted():
            on_exhausted(*args)
            return
        tally.retries_spent += 1
        obs.metrics.increment(f"query.retry.{step}")
        delay = backoff.next_delay_ms()
        rec = obs.recorder
        if rec.enabled:
            wait = rec.start("query.backoff", category="query", parent=parent,
                             step="backoff", retry_of=step, **labels)
            sim.schedule(delay, lambda: (obs.end_step(wait), attempt(*args)))
        else:
            sim.schedule(delay, attempt, *args)

    return failed
