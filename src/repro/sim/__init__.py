"""Deterministic discrete-event simulation engine.

Every RBAY component runs on top of this engine: simulated hosts exchange
messages whose delivery times come from the network latency model, timers
drive periodic maintenance (tree re-subscription, aggregation roll-up), and
all randomness flows from named, seeded streams so that experiments are
reproducible bit-for-bit.

The scheduling surface the rest of the system may rely on is named
explicitly by :class:`EngineProtocol`.  Two implementations exist: the DES
:class:`~repro.sim.engine.Simulator` (virtual time, deterministic oracle)
and the wall-clock :class:`~repro.transport.realtime.RealtimeScheduler`
(live runs over asyncio).  Code that drives "the engine" — the plane, the
transports, the sanitizer — types against the protocol, not a concrete
class, which is what lets a live run reuse the whole protocol stack
unchanged.
"""

from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.sim.engine import Event, Simulator
from repro.sim.futures import Future, FutureTimeout, gather
from repro.sim.random_streams import RandomStreams


@runtime_checkable
class EngineProtocol(Protocol):
    """The scheduling contract shared by the DES and the live scheduler.

    Structural (duck-typed): any object with these members satisfies the
    protocol — ``isinstance(obj, EngineProtocol)`` checks member presence
    at runtime.  Return types are deliberately loose (``Any``): the two
    engines hand back different event handles (``Event`` vs
    ``RealtimeEvent``) of which callers use only ``cancel()``;
    ``schedule_periodic`` returns the one
    :class:`~repro.sim.engine.PeriodicTask` on both.
    """

    # -- clock ---------------------------------------------------------
    @property
    def now(self) -> float: ...

    @property
    def events_executed(self) -> int: ...

    @property
    def pending_events(self) -> int: ...

    # -- scheduling ----------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Any: ...

    def schedule_at(self, when: float, callback: Callable[..., Any],
                    *args: Any) -> Any: ...

    def post(self, delay: float, callback: Callable[..., Any],
             *args: Any) -> None: ...

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> Any: ...

    def schedule_periodic(self, interval: float, callback: Callable[..., Any],
                          *args: Any,
                          jitter_fn: Optional[Callable[[], float]] = None,
                          ) -> Any: ...

    # -- execution -----------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None: ...

    def run_for(self, duration: float) -> None: ...

    def run_until_idle(self, max_events: Optional[int] = None) -> None: ...

    def run_until(self, predicate: Callable[[], bool],
                  timeout: Optional[float] = None,
                  max_events: Optional[int] = None) -> bool: ...

    # -- observation hooks & quiescence --------------------------------
    def set_step_hook(self,
                      hook: Optional[Callable[[float, int], None]]) -> None: ...

    def set_idle_hook(self, hook: Optional[Callable[[], None]]) -> None: ...

    def add_idle_source(self, source: Callable[[], bool]) -> None: ...


__all__ = [
    "EngineProtocol",
    "Event",
    "Future",
    "FutureTimeout",
    "RandomStreams",
    "Simulator",
    "gather",
]
