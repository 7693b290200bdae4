"""A wall-clock implementation of the simulator's scheduling API.

The entire protocol stack is callback-driven: components schedule
callbacks at future virtual times and top-level code drives the loop via
``Future.result() → sim.run_until(...)``.  That seam means a *live* run
needs no protocol changes at all — only an object that speaks the
:class:`~repro.sim.engine.Simulator` API but maps it onto real time and
an asyncio event loop.  :class:`RealtimeScheduler` is that object:

* the clock is wall time, reported in virtual milliseconds through a
  configurable ``time_scale`` (wall milliseconds per virtual
  millisecond; ``0.05`` compresses the paper's multi-second protocol
  timeouts 20×, which keeps live tests fast without touching any
  timeout constant);
* ``schedule`` / ``post`` become ``loop.call_later`` timers (periodic
  tasks arm *daemon* ones, which never hold off quiescence);
* ``run`` / ``run_until`` pump the asyncio loop — socket transports and
  timers interleave naturally — until the deadline, predicate, or
  quiescence.  The pump is event-driven: it sleeps until :meth:`kick`
  (after every fired callback, reported error and delivered frame), so
  ``run_until`` returns in the loop iteration after its predicate turns
  true; ``poll_interval_s`` is only the *fallback tick* for what no event
  announces — the deadline (the last tick lands on it), ``max_wall_s``
  and quiescence;
* the rest — hooks, idle sources, ``call_soon``, ``schedule_periodic``,
  ``run_for``, ``run_until_idle`` — is the ``EngineBase`` the
  ``Simulator`` extends too, so the sanitizer attaches to live runs
  unmodified.

Quiescence is cooperative: transports register *idle sources*
(:meth:`add_idle_source`) reporting in-flight work, and ``run()`` with
no deadline drains until the one-shot timer count and every idle source
agree the system is quiet on two consecutive fallback ticks — ticks, not
wake-ups: a frame a partitioned peer handed to its kernel is counted by
nobody until it arrives, and only wall time lets it land.
"""

from __future__ import annotations

import asyncio
import time
from functools import partial
from typing import Any, Callable, Optional

from repro.sim.engine import EngineBase, SimulationError


class RealtimeTimeout(RuntimeError):
    """A live pump exceeded its wall-clock safety budget."""


class RealtimeEvent:
    """Handle for one scheduled live callback (mirrors ``sim.Event``)."""

    __slots__ = ("time", "seq", "cancelled", "daemon", "_handle", "_scheduler")

    def __init__(self, scheduler: "RealtimeScheduler", when: float, seq: int,
                 daemon: bool):
        self.time = when
        self.seq = seq
        self.cancelled = False
        self.daemon = daemon
        self._handle: Optional[asyncio.TimerHandle] = None
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the callback from running.  Safe to call repeatedly."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()
        self._scheduler._settle(self)


class RealtimeScheduler(EngineBase):
    """Drop-in ``Simulator`` for live transports (see module docstring).

    Implements :class:`repro.sim.EngineProtocol`; the conformance suite
    (``tests/test_engine_protocol.py``) exercises both engines through the
    protocol surface only.
    """

    def __init__(self, time_scale: float = 1.0, poll_interval_s: float = 0.001,
                 max_wall_s: float = 300.0):
        if time_scale <= 0:
            raise SimulationError(f"time_scale must be positive (got {time_scale})")
        super().__init__()
        self.time_scale = time_scale
        self.poll_interval_s = poll_interval_s
        #: Wall-clock budget for any single pump call; a live run that
        #: exceeds it raises :class:`RealtimeTimeout` instead of hanging.
        self.max_wall_s = max_wall_s
        self.loop = asyncio.new_event_loop()
        self._t0 = time.monotonic()
        self._pending = 0          # outstanding one-shot (non-daemon) timers
        self._daemon_pending = 0   # periodic-task timers (don't block idle)
        # Daemon: an armed periodic timer must not hold off quiescence.
        self._arm_periodic = partial(self.schedule, daemon=True)
        self._closed = False
        self._error: Optional[BaseException] = None
        self._wakeup = asyncio.Event()  # what a sleeping pump awaits
        self._tick_handle: Optional[asyncio.TimerHandle] = None
        self._ticks = 0            # fallback ticks taken so far

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Wall time since construction, in virtual milliseconds."""
        return (time.monotonic() - self._t0) * 1000.0 / self.time_scale

    @property
    def pending_events(self) -> int:
        return self._pending + self._daemon_pending

    def _wall_delay(self, virtual_ms: float) -> float:
        return virtual_ms * self.time_scale / 1000.0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any, daemon: bool = False) -> RealtimeEvent:
        """Run ``callback(*args)`` after ``delay`` virtual milliseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        if self._closed:
            raise SimulationError("scheduler is closed")
        event = RealtimeEvent(self, self.now + delay, next(self._seq), daemon)
        if daemon:
            self._daemon_pending += 1
        else:
            self._pending += 1
        event._handle = self.loop.call_later(
            self._wall_delay(delay), self._fire, event, callback, args)
        return event

    def schedule_at(self, when: float, callback: Callable[..., Any],
                    *args: Any) -> RealtimeEvent:
        """Run at absolute virtual time ``when`` (clamped to "now": the
        wall clock advances while Python runs, so a past instant means
        "as soon as possible", not an error as in the DES)."""
        return self.schedule(max(0.0, when - self.now), callback, *args)

    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget scheduling (no cancellation handle)."""
        self.schedule(delay, callback, *args)

    def _settle(self, event: RealtimeEvent) -> None:
        """Account one event leaving the pending set (fired or cancelled)."""
        if event.daemon:
            self._daemon_pending -= 1
        else:
            self._pending -= 1

    def _fire(self, event: RealtimeEvent, callback: Callable[..., Any],
              args: tuple) -> None:
        if event.cancelled:
            return  # already settled by cancel()
        event.cancelled = True  # consumed: a later cancel() must be a no-op
        self._settle(event)
        self._events_executed += 1
        try:
            if self._step_hook is not None:
                self._step_hook(self.now, event.seq)
            callback(*args)
        except BaseException as exc:  # surfaced by the next pump iteration
            self.report_error(exc)
        self.kick()

    def report_error(self, exc: BaseException) -> None:
        """Let transports surface a fatal async failure to the pump."""
        if self._error is None:
            self._error = exc
        self.kick()

    def kick(self) -> None:
        """Wake a sleeping pump to re-check its stop condition: called
        wherever state a predicate reads may have changed (a callback fired,
        an error was reported, the transport delivered a frame).  Kicks in
        one loop iteration coalesce; with no pump asleep this is a no-op."""
        self._wakeup.set()

    def _tick(self) -> None:
        self._tick_handle = None
        self._ticks += 1
        self.kick()

    def _quiet(self) -> bool:
        return not self._pending and all(source() for source in self._idle_sources)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def _drive(self, stop: Callable[[], bool],
                     deadline: Optional[float]) -> bool:
        start_wall = time.monotonic()
        try:
            while True:
                if self._error is not None:
                    exc, self._error = self._error, None
                    raise exc
                if stop():
                    return True
                if deadline is not None and self.now >= deadline:
                    return stop()
                if time.monotonic() - start_wall > self.max_wall_s:
                    raise RealtimeTimeout(
                        f"live pump exceeded max_wall_s={self.max_wall_s}")
                # One fallback tick stays armed across kicks (re-arming per
                # wake-up would let a busy loop starve it); the last one
                # lands on the deadline.
                if self._tick_handle is None:
                    delay = self.poll_interval_s
                    if deadline is not None:
                        delay = min(delay, self._wall_delay(deadline - self.now))
                    self._tick_handle = self.loop.call_later(delay, self._tick)
                self._wakeup.clear()  # stop() above saw every kick so far
                await self._wakeup.wait()
        finally:
            if self._tick_handle is not None:
                self._tick_handle.cancel()
                self._tick_handle = None

    def _pump(self, stop: Callable[[], bool], deadline: Optional[float]) -> bool:
        if self._running:
            raise SimulationError("RealtimeScheduler.run is not reentrant")
        if self._closed:
            raise SimulationError("scheduler is closed")
        self._running = True
        try:
            return self.loop.run_until_complete(self._drive(stop, deadline))
        finally:
            self._running = False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """With ``until``: pump until that virtual time.  Without: drain
        to quiescence (no one-shot timers, all idle sources quiet on two
        consecutive fallback ticks), then fire the idle hook."""
        if until is not None:
            self._pump(lambda: False, until)
            return
        budget = (None if max_events is None
                  else self._events_executed + max_events)
        streak = 0
        counted = -1  # the tick count the streak last grew on

        def _stop() -> bool:
            nonlocal streak, counted
            if budget is not None and self._events_executed >= budget:
                return True
            if not self._quiet():
                streak = 0
            elif self._ticks != counted:
                # One observation per tick (and the very first check): a
                # kick can break the streak, never lengthen it.
                counted = self._ticks
                streak += 1
            return streak >= 2

        self._pump(_stop, None)
        if self._idle_hook is not None and self._quiet():
            self._idle_hook()

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> bool:
        """Pump until ``predicate()`` is true; returns whether it became
        true by the (virtual-ms) timeout."""
        deadline = None if timeout is None else self.now + timeout
        budget = (None if max_events is None
                  else self._events_executed + max_events)

        def _stop() -> bool:
            if predicate():
                return True
            if budget is not None and self._events_executed >= budget:
                return True
            return False

        self._pump(_stop, deadline)
        return bool(predicate())

    def serve(self, duration_s: float) -> None:
        """Pump for a fixed *wall* duration (the ``rbay serve`` loop)."""
        self.run_for(duration_s * 1000.0 / self.time_scale)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear the loop down (idempotent).  Pending timers are dropped."""
        if self._closed:
            return
        self._closed = True
        pending = asyncio.all_tasks(self.loop)
        for task in pending:
            task.cancel()
        if pending:
            self.loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True))
        self.loop.run_until_complete(self.loop.shutdown_asyncgens())
        self.loop.close()
