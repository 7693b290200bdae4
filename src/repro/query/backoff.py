"""Truncated exponential backoff for query conflicts (paper §III-D).

"After c fails, a random number of slot times between 0 and 2^c - 1 is
chosen" — aggressive customers accumulate failures and back off for longer,
which both avoids the deadlock scenario and biases access toward less
aggressive customers.

:class:`RetryStep` is the loop the query executor runs every lossy
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


class RetryStep:
    """The one retry loop for a query-protocol step (paper §III-D): the
    remote site request, the size-probe round, one tree's anycast.

    The step starts with ``attempt(loop)``; the loop is an argument, never
    a closure's, so a finished step is freed by reference counting.  Each
    attempt sends inside ``with loop.attempt(**labels):``, which numbers it
    and opens its ``query.<step>`` span under ``parent``, and ends with
    ``loop.succeeded(**fields)`` or ``loop.failed(*args)``.  A loss is
    counted (``query.retry.<step>``, the request's ``retries_spent``) and
    backed off (with a ``query.backoff`` span), then re-attempted as
    ``attempt(loop, *args)`` — or, once the budget (the request's
    ``QueryOptions.retry_budget``) is spent, handed to
    ``on_exhausted(*args)``.
    """

    #: Attempt-span ``step`` labels that differ from the step's name.
    _SPAN_STEP = {"site": "site_rtt"}

    def __init__(self, context: Any, request: Any, obs: Any, step: str,
                 attempt: Callable[..., None],
                 on_exhausted: Callable[..., None], parent: Any = None,
                 **labels: Any):
        self._backoff = TruncatedExponentialBackoff(
            context.retry_rng, slot_ms=context.retry_slot_ms,
            max_attempts=request.options.retry_budget + 1)
        self._sim = context.sim
        self._request = request
        self._obs = obs
        self._step = step
        self._attempt = attempt
        self._on_exhausted = on_exhausted
        self._parent = parent
        self._labels = labels
        self._span = None

    def attempt(self, **labels: Any):
        """Open the next attempt: the context its send runs in."""
        rec = self._obs.recorder
        if rec.enabled:
            step = self._step
            self._span = rec.start(
                f"query.{step}", category="query", parent=self._parent,
                step=self._SPAN_STEP.get(step, step), **self._labels,
                **labels, attempt=self._backoff.failures + 1)
        return rec.use(self._span)

    def succeeded(self, **fields: Any) -> None:
        """The attempt was answered: close its span with ``fields``."""
        if self._span is not None:
            self._obs.end_step(self._span, status="ok", **fields)

    def failed(self, *args: Any) -> None:
        """The attempt was lost: close its span, then back off and
        re-attempt, or give up."""
        obs = self._obs
        if self._span is not None:
            obs.end_step(self._span, status="timeout")
        backoff = self._backoff
        backoff.record_failure()
        if backoff.exhausted():
            self._on_exhausted(*args)
            return
        self._request.retries_spent += 1
        obs.metrics.increment(f"query.retry.{self._step}")
        delay = backoff.next_delay_ms()
        rec = obs.recorder
        if rec.enabled:
            wait = rec.start("query.backoff", category="query",
                             parent=self._parent, step="backoff",
                             retry_of=self._step, **self._labels)
            self._sim.schedule(delay, lambda: (obs.end_step(wait),
                                               self._attempt(self, *args)))
        else:
            self._sim.schedule(delay, self._attempt, self, *args)
