"""The discrete-event simulator core.

A :class:`Simulator` owns a virtual clock (milliseconds, float) and a
priority queue of scheduled callbacks.  Components never sleep or spawn
threads; they schedule callbacks at future virtual times and the single
event loop executes them in time order.  Ties are broken by insertion
order, which keeps runs deterministic.

The queue is a heap of ``(time, seq, handle, callback, args)`` tuples: ``seq``
is unique, so C-level tuple comparison orders on the first two fields and
never reaches the rest.  A ``post`` keeps its call in the tuple (``handle``
``None``); a ``schedule`` keeps it on the cancellable :class:`Event` it
stores as ``handle``.  :meth:`Simulator._drain` alone pops the heap: ``run``,
``run_until`` and ``step`` are that loop under different stops.

While it drains, CPython's generation-0 threshold is
:data:`DRAIN_GC_THRESHOLD` (see there for why).  Nothing in the simulation
reads the collector: ``src/`` holds no ``weakref``, no ``__del__`` and no
``gc`` call besides this one, so the threshold moves wall time only, never
an event, a message or an outcome.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from typing import Any, Callable, Optional


#: CPython's generation-0 threshold while :meth:`Simulator._drain` runs
#: (the interpreter's default is 700).  A publish wave of the 1,024-node
#: ``publish_storm`` keeps thousands of tracked objects in flight: at 700
#: they outlive young passes and are promoted before they die by
#: refcount, and every eleventh generation-1 pass then starts a full
#: collection that walks the whole federation (200-300 k long-lived
#: objects) and frees nothing.  The sweep (``tools/gc_census.py
#: --threshold N``; generation 0 / 1 / 2 collections in the measured
#: slices of two repetitions): 700 2,380 / 216 / 20; 5 k 450 / 40 / 4;
#: 10 k 230 / 22 / 2; 20 k and 50 k 218 / 20 / 2.  From 20 k on, the only
#: young passes left are the ones a drain's exit triggers when it puts
#: the caller's threshold back (a 50-ms slice's drain ends with a count
#: of up to about 15 k), so 20 k is the smallest value tried at which no
#: collection runs inside a drain.  The price is a bound: at most this many tracked
#: objects of cyclic garbage wait for the next young pass, and the query
#: path makes none (EXPERIMENTS.md, "The query path leaves no garbage").
DRAIN_GC_THRESHOLD = 20_000


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. scheduling in the past)."""


class Event:
    """The handle :meth:`Simulator.schedule` returns for a queued callback.

    Cancellation is lazy: a cancelled event's heap entry stays queued and
    is skipped when popped, which keeps ``cancel`` O(1).  The call lives on
    the event and ``cancel`` drops it: what it reached is freed at once.
    """

    __slots__ = ("time", "seq", "cancelled", "callback", "args")

    def __init__(self, time: float, seq: int, callback: Callable, args: tuple):
        self.time = time
        self.seq = seq
        self.cancelled = False
        self.callback = callback
        self.args = args

    def cancel(self) -> None:
        """Prevent the callback from running.  Safe to call more than once."""
        self.cancelled = True
        self.callback = self.args = None

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
        self._heap: list[tuple] = []  # see the module docstring

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
        return sum(1 for entry in self._heap
                   if entry[2] is None or not entry[2].cancelled)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` virtual milliseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        event = Event(self._now + delay, next(self._seq), callback, args)
        heapq.heappush(self._heap, (event.time, event.seq, event, None, None))
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Run ``callback(*args)`` at absolute virtual time ``time``."""
        return self.schedule(time - self._now, callback, *args)

    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget scheduling: no handle is allocated or returned,
        so the event cannot be cancelled (message delivery schedules
        millions of these in the scale workloads)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(self._heap,
                       (self._now + delay, next(self._seq), None, callback, args))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _drain(self, until: Optional[float], max_events: Optional[int],
               stop: Optional[Callable[[], bool]] = None) -> bool:
        """The one loop — the only code that pops the heap.  Runs events in
        ``(time, seq)`` order, skipping cancelled ones, and asks before each,
        in this order: ``stop()``; is anything still due by ``until``; have
        ``max_events`` run.  True when it ran out of due work (the caller may
        move the clock to ``until``), False when ``stop()`` or ``max_events``
        ended it first.

        The generation-0 threshold is raised to :data:`DRAIN_GC_THRESHOLD`
        for the loop and put back as it was on every exit; a caller's
        threshold of 0 (collector off) or above the constant is left alone,
        so a nested drain inherits its outer drain's and changes nothing."""
        threshold = gc.get_threshold()
        raised = 0 < threshold[0] < DRAIN_GC_THRESHOLD
        if raised:
            gc.set_threshold(DRAIN_GC_THRESHOLD)
        try:
            executed = 0
            heap = self._heap
            pop = heapq.heappop
            while True:
                if stop is not None and stop():
                    return False
                if not heap:
                    return True
                time, seq, handle, callback, args = heap[0]
                if handle is not None:
                    if handle.cancelled:
                        pop(heap)
                        continue
                    callback, args = handle.callback, handle.args
                if until is not None and time > until:
                    return True
                if max_events is not None and executed >= max_events:
                    return False
                pop(heap)
                self._now = time
                self._events_executed += 1
                executed += 1
                if self._step_hook is not None:
                    self._step_hook(time, seq)
                callback(*args)
        finally:
            if raised:
                gc.set_threshold(*threshold)

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when queue is empty."""
        before = self._events_executed
        self._drain(None, 1)
        return self._events_executed > before

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
            if self._drain(until, max_events) and until is not None:
                self._now = max(self._now, until)
        finally:
            self._running = False
        if (self._idle_hook is not None and not self._heap
                and all(source() for source in self._idle_sources)):
            self._idle_hook()

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> bool:
        """Run until ``predicate()`` is true; returns whether it became true.
        ``timeout`` is ``run``'s ``until``, relative to now: a call that timed
        out ran everything due by the deadline and ends with the clock on it
        (as the live scheduler's does)."""
        deadline = None if timeout is None else self._now + timeout
        if self._drain(deadline, max_events, predicate) and deadline is not None:
            self._now = max(self._now, deadline)
        return predicate()


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
