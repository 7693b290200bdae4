"""Customers ("buy" side): SQL queries with conflict backoff.

A customer talks to a nearby query interface (any RBAY node in its site).
If concurrent customers contend for the same resources and a query comes
back short, the customer re-queries after a truncated-exponential backoff
(§III-D): aggressive customers accumulate failures and wait longer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from typing import TYPE_CHECKING

from repro.core.node import RBayNode
from repro.query.backoff import TruncatedExponentialBackoff
from repro.query.options import QueryOptions
from repro.query.sql import parse_query
from repro.sim.futures import Future

if TYPE_CHECKING:  # break the core <-> query.executor import cycle
    from repro.query.executor import QueryApplication, QueryResult


@dataclass
class QueryOutcome:
    """Final outcome of a customer request, across backoff attempts."""

    sql: str
    result: Optional["QueryResult"] = None
    attempts: int = 0
    gave_up: bool = False
    total_latency_ms: float = 0.0
    attempt_results: List["QueryResult"] = field(default_factory=list)

    @property
    def satisfied(self) -> bool:
        return self.result is not None and self.result.satisfied

    def node_ids(self) -> List[int]:
        return [] if self.result is None else self.result.node_ids()


class Customer:
    """One customer bound to a home query-interface node."""

    def __init__(
        self,
        name: str,
        home: RBayNode,
        rng: random.Random,
        backoff_slot_ms: float = 100.0,
        max_attempts: int = 8,
    ):
        self.name = name
        self.home = home
        self.rng = rng
        self.backoff_slot_ms = backoff_slot_ms
        self.max_attempts = max_attempts

    @property
    def _query_app(self) -> "QueryApplication":
        return self.home.apps["query"]  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def query_once(
        self,
        sql: str,
        payload: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Future:
        """One attempt, no backoff; resolves to a :class:`QueryResult`."""
        query = parse_query(sql)
        return self._query_app.execute(self.home, query, QueryOptions(
            payload=payload, caller=self.name, deadline_ms=timeout))

    def request(
        self,
        sql: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Future:
        """Query with automatic re-query on shortfall.

        Resolves to a :class:`QueryOutcome` once satisfied or the attempt
        budget is exhausted.
        """
        sim = self.home.sim
        query = parse_query(sql)
        outcome = QueryOutcome(sql=sql)
        done = Future(sim)
        backoff = TruncatedExponentialBackoff(
            self.rng, slot_ms=self.backoff_slot_ms, max_attempts=self.max_attempts
        )
        started = sim.now

        def _attempt() -> None:
            outcome.attempts += 1
            future = self._query_app.execute(self.home, query, QueryOptions(
                payload=payload, caller=self.name))
            future.add_callback(_on_result)

        def _on_result(result: Any) -> None:
            if isinstance(result, Exception):
                _fail_or_retry()
                return
            outcome.attempt_results.append(result)
            outcome.result = result
            if result.satisfied:
                outcome.total_latency_ms = sim.now - started
                done.try_resolve(outcome)
                return
            _fail_or_retry()

        def _fail_or_retry() -> None:
            backoff.record_failure()
            if backoff.exhausted():
                outcome.gave_up = True
                outcome.total_latency_ms = sim.now - started
                done.try_resolve(outcome)
                return
            sim.schedule(backoff.next_delay_ms(), _attempt)

        _attempt()
        return done

    def shop(
        self,
        sql: str,
        overask: float,
        options: QueryOptions,
        pick: Callable[["QueryResult", Optional[int]], "QueryResult"],
        order_by: Optional[str] = None,
    ) -> Future:
        """Over-ask, then keep what ``pick(result, wanted)`` returns.

        The query asks for ``k * overask`` candidates (ascending by
        ``order_by`` when given) with ``min_k`` at the k it names: a
        market holding fewer matches than the inflated k still settles,
        and one holding fewer than k settles unsatisfied — the executor
        then releases every reservation, so ``pick`` never keeps a lease
        that no longer exists.  ``pick`` releases what it declines; an
        exception passes through unpicked.
        """
        query = parse_query(sql)
        wanted = query.k
        if wanted is not None:
            query.k = max(wanted, int(wanted * overask))
            query.min_k = wanted
        if order_by is not None:
            query.order_by = order_by
            query.descending = False
        future = self._query_app.execute(self.home, query, options)
        done = Future(self.home.sim, timeout=options.deadline_ms)
        future.add_callback(lambda result: done.try_resolve(
            result if isinstance(result, Exception) else pick(result, wanted)))
        return done

    # ------------------------------------------------------------------
    def release(self, result: "QueryResult",
                entries: Iterable[Dict[str, Any]]) -> None:
        """Give back ``entries`` of ``result`` (the customer declined them)."""
        for entry in entries:
            self.home.send_app(entry["address"], "query", "release",
                               {"query_id": result.query_id})

    def release_all(self, result: "QueryResult") -> None:
        """Give back every node a query holds (customer declined)."""
        self.release(result, result.entries)
