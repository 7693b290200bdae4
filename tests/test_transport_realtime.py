"""RealtimeScheduler: the wall-clock stand-in for the DES Simulator."""

import time

import pytest

from repro.sim.engine import SimulationError
from repro.transport.realtime import RealtimeScheduler, RealtimeTimeout


@pytest.fixture
def sched():
    s = RealtimeScheduler(time_scale=0.01)
    yield s
    s.close()


@pytest.fixture
def slow_tick():
    """A fallback tick so long (0.25 s) that anything prompt was a kick."""
    s = RealtimeScheduler(time_scale=0.01, poll_interval_s=0.25)
    yield s
    s.close()


def test_schedule_fires_in_order(sched):
    # Gaps of >= 1 ms of wall time (100 virtual ms at this scale), as in
    # test_engine_protocol.py: anything finer races the loop's own
    # call_soon latency on a loaded box.
    fired = []
    t0 = sched.now
    sched.schedule(200.0, lambda: fired.append(("late", sched.now)))
    sched.schedule(100.0, lambda: fired.append(("early", sched.now)))
    sched.call_soon(lambda: fired.append(("now", sched.now)))
    sched.run()
    assert [tag for tag, _ in fired] == ["now", "early", "late"]
    for (_, at), delay in zip(fired, (0.0, 100.0, 200.0)):
        assert at >= t0 + delay  # never early
    assert sched.events_executed == 3
    assert sched.pending_events == 0


def test_now_advances_and_events_stamp_time(sched):
    t0 = sched.now
    seen = []
    sched.schedule(50.0, lambda: seen.append(sched.now))
    sched.run()
    assert seen and seen[0] >= t0 + 50.0 * 0.5  # generous: wall jitter


def test_cancel_prevents_execution(sched):
    fired = []
    event = sched.schedule(10.0, fired.append, "x")
    event.cancel()
    event.cancel()  # idempotent
    sched.run()
    assert fired == []
    assert sched.pending_events == 0


def test_post_and_schedule_at(sched):
    fired = []
    sched.post(1.0, fired.append, "posted")
    sched.schedule_at(sched.now + 2.0, fired.append, "at")
    sched.schedule_at(0.0, fired.append, "past-means-asap")
    sched.run()
    assert sorted(fired) == ["at", "past-means-asap", "posted"]


def test_negative_delay_rejected(sched):
    with pytest.raises(SimulationError):
        sched.schedule(-1.0, lambda: None)
    with pytest.raises(SimulationError):
        sched.run_for(-5.0)


def test_periodic_task_fires_and_stops(sched):
    ticks = []
    task = sched.schedule_periodic(5.0, lambda: ticks.append(sched.now))
    assert not task.stopped
    sched.run_until(lambda: len(ticks) >= 3, timeout=5_000.0)
    task.stop()
    assert task.stopped
    count = len(ticks)
    assert count >= 3
    sched.run()  # daemon timers never block quiescence
    assert len(ticks) == count


def test_armed_periodic_task_does_not_hold_off_quiescence(sched):
    """The live scheduler arms the shared ``PeriodicTask`` over *daemon*
    timers; lose the ``daemon=True`` and ``run()`` can never go quiet."""
    sched.max_wall_s = 2.0  # fail fast instead of pumping for minutes
    ticks = []
    task = sched.schedule_periodic(5.0, lambda: ticks.append(sched.now))
    sched.schedule(12.0, lambda: None)
    sched.run()  # drains the one-shot timer, then returns
    assert not task.stopped
    assert sched.pending_events == 1  # the periodic timer is still armed
    task.stop()
    assert sched.pending_events == 0


def test_periodic_interval_must_be_positive(sched):
    with pytest.raises(SimulationError):
        sched.schedule_periodic(0.0, lambda: None)


def test_run_until_predicate_and_timeout(sched):
    box = []
    sched.schedule(10.0, box.append, 1)
    assert sched.run_until(lambda: box, timeout=5_000.0)
    assert not sched.run_until(lambda: False, timeout=20.0)


def test_callback_errors_propagate_to_pump(sched):
    def boom():
        raise RuntimeError("broken callback")

    sched.schedule(1.0, boom)
    with pytest.raises(RuntimeError, match="broken callback"):
        sched.run()


def test_report_error_surfaces(sched):
    sched.report_error(ValueError("transport died"))
    with pytest.raises(ValueError, match="transport died"):
        sched.run_for(1.0)


def test_step_and_idle_hooks(sched):
    steps = []
    idles = []
    sched.set_step_hook(lambda now, seq: steps.append(seq))
    sched.set_idle_hook(lambda: idles.append(True))
    sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    sched.run()
    assert len(steps) == 2
    assert idles == [True]


def test_idle_sources_hold_off_quiescence(sched):
    busy = [True]
    sched.add_idle_source(lambda: not busy[0])
    sched.schedule(5.0, busy.__setitem__, 0, False)
    sched.run()  # returns only once the source reports quiet
    assert not busy[0]


def test_wall_budget_raises(sched):
    sched.max_wall_s = 0.05
    sched.add_idle_source(lambda: False)  # never quiet
    with pytest.raises(RealtimeTimeout):
        sched.run()


def test_close_is_idempotent_and_blocks_scheduling():
    sched = RealtimeScheduler(time_scale=0.01)
    sched.close()
    sched.close()
    with pytest.raises(SimulationError):
        sched.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sched.run()


def test_run_is_not_reentrant(sched):
    def reenter():
        sched.run()

    sched.schedule(1.0, reenter)
    with pytest.raises(SimulationError, match="not reentrant"):
        sched.run()


# ----------------------------------------------------------------------
# The event-driven pump: kicks wake it, the fallback tick only serves the
# deadline, max_wall_s and the quiescence streak.
# ----------------------------------------------------------------------
def test_timer_wakes_run_until_without_waiting_for_a_tick(slow_tick):
    flag = []
    slow_tick.schedule(5.0, flag.append, 1)  # 0.05 ms of wall time
    started = time.monotonic()
    assert slow_tick.run_until(lambda: flag, timeout=60_000.0)
    assert time.monotonic() - started < 0.2  # polling would take >= 0.25


def test_run_until_deadline_lands_on_the_deadline_not_a_tick_late(slow_tick):
    started = time.monotonic()
    slow_tick.run(until=slow_tick.now + 2_000.0)  # 20 ms of wall time
    elapsed = time.monotonic() - started
    assert 0.02 <= elapsed < 0.2
    started = time.monotonic()
    assert not slow_tick.run_until(lambda: False, timeout=2_000.0)
    assert 0.02 <= time.monotonic() - started < 0.2


def test_reported_error_wakes_the_pump(slow_tick):
    slow_tick.loop.call_later(0.01, slow_tick.report_error,
                              ValueError("transport died"))
    started = time.monotonic()
    with pytest.raises(ValueError, match="transport died"):
        slow_tick.run_until(lambda: False, timeout=60_000.0)
    assert time.monotonic() - started < 0.2


def test_quiescence_counts_ticks_not_kicks():
    """``run()`` needs quiet on two *fallback ticks*: a burst of kicks (a
    daemon timer firing every 50 us, the plane quiet throughout) must
    neither satisfy the streak early nor starve the tick."""
    sched = RealtimeScheduler(time_scale=0.01, poll_interval_s=0.05)
    try:
        kicks = []
        task = sched.schedule_periodic(5.0, kicks.append, 1)
        started = time.monotonic()
        sched.run()
        elapsed = time.monotonic() - started
        task.stop()
        assert len(kicks) > 10    # the pump was woken many times over...
        assert elapsed >= 0.05    # ...yet waited out a whole tick
        assert elapsed < 1.0
    finally:
        sched.close()


def test_kick_without_a_pump_is_a_noop(sched):
    sched.kick()
    fired = []
    sched.schedule(1.0, fired.append, "x")
    sched.kick()
    assert fired == []  # a kick wakes a pump; it runs nothing itself
    sched.run()
    assert fired == ["x"]
    sched.kick()
