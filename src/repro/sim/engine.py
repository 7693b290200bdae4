"""The discrete-event simulator core.

A :class:`Simulator` owns a virtual clock (milliseconds, float) and a
priority queue of scheduled callbacks.  Components never sleep or spawn
threads; they schedule callbacks at future virtual times and the single
event loop executes them in time order.  Ties are broken by insertion
order, which keeps runs deterministic.

The run loop drains every callback sharing a timestamp in one tight pass
and recycles fire-and-forget :class:`Event` objects (:meth:`Simulator.post`)
through a free-list.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

#: Upper bound on the recycled-Event free-list; beyond this, executed
#: pooled events are left to the garbage collector.
_POOL_LIMIT = 65_536


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. scheduling in the past)."""


class Event:
    """A handle for a scheduled callback.

    Events support cancellation: a cancelled event stays in the heap but is
    skipped when popped (lazy deletion), which keeps ``cancel`` O(1).

    ``pooled`` marks events created by :meth:`Simulator.post`: no handle
    escapes to callers, so after execution the object is recycled through
    the simulator's free-list instead of being garbage collected.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "pooled")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.pooled = False

    def cancel(self) -> None:
        """Prevent the callback from running.  Safe to call more than once."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        # Hot comparator (every heap sift calls it): ordering is by
        # (time, seq) but written branchy to avoid two tuple allocations.
        if self.time < other.time:
            return True
        return self.time == other.time and self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.3f} seq={self.seq} {state}>"


class EngineBase:
    """What the DES and the live scheduler share (:class:`repro.sim.
    EngineProtocol`): the observation hooks, idle sources, the executed-
    event count, and the conveniences that are pure functions of a
    subclass's ``now`` / ``schedule`` / ``run``."""

    def __init__(self) -> None:
        self._seq = itertools.count()
        self._events_executed = 0
        self._running = False
        self._step_hook: Optional[Callable[[float, int], None]] = None
        self._idle_hook: Optional[Callable[[], None]] = None
        self._idle_sources: list[Callable[[], bool]] = []
        #: Arms one PeriodicTask firing; the live scheduler swaps in daemons.
        self._arm_periodic: Callable[..., Any] = self.schedule

    def set_step_hook(self, hook: Optional[Callable[[float, int], None]]) -> None:
        """Install an observer called with ``(time, seq)`` before each event
        executes.  The (time, seq) stream is a total order over everything
        the engine does, so recording (or hashing) it gives a
        byte-comparable trace for determinism checks — e.g. that identical
        fault-schedule seeds replay identically.  ``None`` uninstalls."""
        self._step_hook = hook

    def set_idle_hook(self, hook: Optional[Callable[[], None]]) -> None:
        """Install an observer called when :meth:`run` reaches true
        quiescence — no message or one-shot timer still pending and every
        idle source quiet.  The invariant sanitizer hangs its
        quiescent-point checks here.  The hook must only observe (never
        schedule work); ``None`` uninstalls."""
        self._idle_hook = hook

    def add_idle_source(self, source: Callable[[], bool]) -> None:
        """Register a predicate that must be true for the plane to count
        as quiescent (live transports report "no frames in flight" here).
        The DES heap is its only work queue, so there sources only gate
        the idle hook; the live pump also waits on them in ``run()``."""
        self._idle_sources.append(source)

    @property
    def events_executed(self) -> int:
        """Number of callbacks executed so far (diagnostics / budget checks)."""
        return self._events_executed

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> Any:
        """Run ``callback(*args)`` at the current time, after pending work."""
        return self.schedule(0.0, callback, *args)

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        jitter_fn: Optional[Callable[[], float]] = None,
    ) -> "PeriodicTask":
        """Run ``callback(*args)`` every ``interval`` ms until stopped.

        ``jitter_fn``, if given, is called before each firing and its return
        value (ms) is added to the interval — used to de-synchronize periodic
        maintenance across thousands of simulated nodes.
        """
        return PeriodicTask(self._arm_periodic, interval, callback, args, jitter_fn)

    def run_for(self, duration: float) -> None:
        """Advance the clock by ``duration`` ms, executing everything due.

        Equivalent to ``run(until=now + duration)`` — the clock always ends
        at least ``duration`` later even if the queue drains early.
        """
        if duration < 0:
            raise SimulationError(f"cannot run for a negative duration ({duration})")
        self.run(until=self.now + duration)

    def run_until_idle(self, max_events: Optional[int] = None) -> None:
        """Drain to quiescence; ``max_events`` is the usual safety valve."""
        self.run(max_events=max_events)

    def close(self) -> None:
        """Release engine resources (an event loop); nothing by default."""


class Simulator(EngineBase):
    """Single-threaded deterministic event loop with a virtual clock.

    Parameters
    ----------
    start_time:
        Initial virtual time in milliseconds.
    """

    def __init__(self, start_time: float = 0.0):
        super().__init__()
        self._now = float(start_time)
        self._heap: list[Event] = []
        self._pool: list[Event] = []

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still in the queue."""
        return sum(1 for e in self._heap if not e.cancelled)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` virtual milliseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        event = Event(self._now + delay, next(self._seq), callback, args)
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Run ``callback(*args)`` at absolute virtual time ``time``."""
        return self.schedule(time - self._now, callback, *args)

    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget scheduling through the Event free-list.

        Unlike :meth:`schedule` no handle is returned, so the event cannot
        be cancelled — in exchange the Event object is recycled after it
        runs, which removes the allocation from hot paths (message
        delivery schedules millions of these in the scale workloads).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = self._now + delay
            event.seq = next(self._seq)
            event.callback = callback
            event.args = args
            event.cancelled = False
        else:
            event = Event(self._now + delay, next(self._seq), callback, args)
            event.pooled = True
        heapq.heappush(self._heap, event)

    def _recycle(self, event: Event) -> None:
        """Return an executed pooled event to the free-list (refs cleared)."""
        event.callback = None
        event.args = ()
        if len(self._pool) < _POOL_LIMIT:
            self._pool.append(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.  Returns False when queue is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                if event.pooled:
                    self._recycle(event)
                continue
            if event.time < self._now - 1e-9:
                raise SimulationError("event heap corrupted: time moved backwards")
            self._now = event.time
            self._events_executed += 1
            if self._step_hook is not None:
                self._step_hook(event.time, event.seq)
            callback, args = event.callback, event.args
            if event.pooled:
                self._recycle(event)
            callback(*args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once virtual time would exceed this value (events scheduled
            later stay queued; the clock is advanced to ``until``).
        max_events:
            Safety valve — stop after executing this many events.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        try:
            self._drain(until, max_events)
        finally:
            self._running = False
        if (self._idle_hook is not None and not self._heap
                and all(source() for source in self._idle_sources)):
            self._idle_hook()

    def _drain(self, until: Optional[float], max_events: Optional[int]) -> None:
        """Drain every runnable event sharing a timestamp in one inner
        pass, so the stop conditions and heap-head inspection are paid once
        per distinct virtual time instead of once per event."""
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        recycle = self._recycle
        while heap:
            head = heap[0]
            if head.cancelled:
                pop(heap)
                if head.pooled:
                    recycle(head)
                continue
            batch_time = head.time
            if until is not None and batch_time > until:
                self._now = max(self._now, until)
                return
            self._now = batch_time
            # Events posted during the batch at the same timestamp join it;
            # tie-break order is preserved because the heap orders by seq.
            while heap and heap[0].time == batch_time:
                if max_events is not None and executed >= max_events:
                    return
                event = pop(heap)
                if event.cancelled:
                    if event.pooled:
                        recycle(event)
                    continue
                self._events_executed += 1
                executed += 1
                if self._step_hook is not None:
                    self._step_hook(batch_time, event.seq)
                callback, args = event.callback, event.args
                if event.pooled:
                    recycle(event)
                callback(*args)
        if until is not None:
            self._now = max(self._now, until)

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> bool:
        """Run until ``predicate()`` is true.  Returns whether it became true."""
        deadline = None if timeout is None else self._now + timeout
        executed = 0
        while not predicate():
            if deadline is not None and self._now >= deadline:
                return False
            if max_events is not None and executed >= max_events:
                return False
            if not self._heap_has_runnable(deadline):
                return predicate()
            self.step()
            executed += 1
        return True

    def _heap_has_runnable(self, deadline: Optional[float]) -> bool:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return False
        if deadline is not None and self._heap[0].time > deadline:
            return False
        return True


class PeriodicTask:
    """A repeating timer created by an engine's ``schedule_periodic``;
    ``schedule(delay, callback)`` is how that engine arms one firing."""

    def __init__(
        self,
        schedule: Callable[..., Any],
        interval: float,
        callback: Callable[..., Any],
        args: tuple,
        jitter_fn: Optional[Callable[[], float]],
    ):
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive (got {interval})")
        self._schedule = schedule
        self._interval = interval
        self._callback = callback
        self._args = args
        self._jitter_fn = jitter_fn
        self._stopped = False
        self._event = self._schedule_next()

    def _schedule_next(self) -> Any:
        delay = self._interval
        if self._jitter_fn is not None:
            delay = max(0.0, delay + self._jitter_fn())
        return self._schedule(delay, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback(*self._args)
        if not self._stopped:
            self._event = self._schedule_next()

    def stop(self) -> None:
        """Cancel all future firings."""
        self._stopped = True
        self._event.cancel()

    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def interval(self) -> float:
        """The base firing interval (ms) — lets a fault injector restart a
        crashed node's maintenance with its original cadence."""
        return self._interval

    @property
    def jitter_fn(self) -> Optional[Callable[[], float]]:
        return self._jitter_fn
