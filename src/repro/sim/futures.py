"""Callback-based futures for request/response protocols in the simulator.

Simulated protocols (DHT probes, anycast queries, aggregate reads) are
naturally request/response: the requester sends a message and continues when
the reply arrives or a timeout fires.  :class:`Future` packages that pattern
without threads or coroutines — callbacks run inside the event loop.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.sim.engine import Simulator


class FutureTimeout(Exception):
    """Delivered to callbacks as the result of a future that timed out."""

    def __repr__(self) -> str:
        return f"FutureTimeout({self.args[0]!r})" if self.args else "FutureTimeout()"


class FutureError(RuntimeError):
    """Raised on misuse (double-resolve, reading an unresolved result)."""


class Future:
    """A single-assignment result slot resolved from within the event loop."""

    __slots__ = ("_sim", "_callbacks", "_resolved", "_value", "_timeout_event",
                 "_timeout_value")

    def __init__(self, sim: Simulator, timeout: Optional[float] = None,
                 timeout_value: Optional[Callable[[], Any]] = None):
        self._sim = sim
        self._callbacks: List[Callable[[Any], None]] = []
        self._resolved = False
        self._value: Any = None
        self._timeout_event = None
        #: Factory for the value delivered on timeout; None means a plain
        #: FutureTimeout.  Protocol layers use it to surface *typed* errors
        #: (e.g. QueryTimeout) instead of the raw simulator exception.
        self._timeout_value = timeout_value
        if timeout is not None:
            self._timeout_event = sim.schedule(timeout, self._on_timeout)

    # ------------------------------------------------------------------
    def _on_timeout(self) -> None:
        if not self._resolved:
            if self._timeout_value is not None:
                self.resolve(self._timeout_value())
            else:
                self.resolve(FutureTimeout(
                    f"future timed out at t={self._sim.now:.3f}ms"))

    def resolve(self, value: Any = None) -> None:
        """Set the result and invoke callbacks (immediately, in order)."""
        if self._resolved:
            raise FutureError("future already resolved")
        self._resolved = True
        self._value = value
        if self._timeout_event is not None:
            self._timeout_event.cancel()
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(value)

    def try_resolve(self, value: Any = None) -> bool:
        """Resolve if not already resolved; returns whether it took effect."""
        if self._resolved:
            return False
        self.resolve(value)
        return True

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Run ``callback(result)`` on resolution (immediately if resolved)."""
        if self._resolved:
            callback(self._value)
        else:
            self._callbacks.append(callback)

    # ------------------------------------------------------------------
    @property
    def resolved(self) -> bool:
        return self._resolved

    @property
    def value(self) -> Any:
        if not self._resolved:
            raise FutureError("future not resolved yet")
        return self._value

    def result(self) -> Any:
        """Drive the simulator until this future resolves, then return the value.

        Convenience for tests and examples operating at the top level of the
        event loop.  Raises :class:`FutureTimeout` if the future timed out,
        and re-raises any other exception the future was resolved with (the
        typed-error channel protocol layers use under injected faults).
        """
        self._sim.run_until(lambda: self._resolved)
        if not self._resolved:
            raise FutureError("simulation drained without resolving future")
        if isinstance(self._value, BaseException):
            raise self._value
        return self._value


class RequestTable:
    """The requests one owner still awaits a reply to, by id.

    An entry lives exactly while its future is unresolved, so a reply or
    the future's own timeout removes it and a lost reply leaks nothing.  A
    reply whose id is not open — late, duplicated or never sent — is not
    accepted; what it means is the owner's decision.
    """

    def __init__(self, ids: Iterator[int]):
        self._ids = ids
        self._open: Dict[int, Future] = {}

    def open(self, future: Future) -> int:
        """Register ``future`` under the next id of the owner's sequence."""
        request_id = next(self._ids)
        self._open[request_id] = future
        future.add_callback(lambda _value: self._open.pop(request_id, None))
        return request_id

    def answer(self, request_id: int, value: Any) -> bool:
        """Resolve the open request ``request_id`` with ``value``; False
        (nothing resolved) when that id is not open."""
        future = self._open.get(request_id)
        return future is not None and future.try_resolve(value)

    def __len__(self) -> int:
        return len(self._open)


def gather(sim: Simulator, futures: List[Future], timeout: Optional[float] = None) -> Future:
    """Return a future resolving to the list of all results (order preserved).

    Timeouts of individual futures appear as :class:`FutureTimeout` entries in
    the result list; ``gather`` itself can also carry an overall timeout.
    """
    combined = Future(sim, timeout=timeout)
    results: List[Any] = [None] * len(futures)
    remaining = [len(futures)]
    if not futures:
        sim.call_soon(combined.try_resolve, [])
        return combined

    def make_callback(index: int) -> Callable[[Any], None]:
        def _cb(value: Any) -> None:
            results[index] = value
            remaining[0] -= 1
            if remaining[0] == 0:
                combined.try_resolve(list(results))

        return _cb

    for i, future in enumerate(futures):
        future.add_callback(make_callback(i))
    return combined
