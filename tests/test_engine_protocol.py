"""EngineProtocol conformance: the DES and the live scheduler agree.

The protocol (``repro.sim.EngineProtocol``) names the scheduling surface
the rest of the system may rely on.  This suite drives *both*
implementations — the virtual-time ``Simulator`` and the wall-clock
``RealtimeScheduler`` — through that surface only, so any behavioral
drift between the oracle and the live engine fails here before it can
corrupt a live run.
"""

import pytest

from repro.sim import EngineProtocol, Simulator
from repro.sim.engine import PeriodicTask
from repro.transport.realtime import RealtimeScheduler

#: Virtual milliseconds are compressed 100x for the live engine so the
#: suite stays fast, while delays remain >= 1ms of wall time — far above
#: the event loop's timer granularity, keeping firing order reliable.
TIME_SCALE = 0.01


@pytest.fixture(params=["sim", "realtime"])
def engine(request):
    if request.param == "sim":
        yield Simulator()
    else:
        scheduler = RealtimeScheduler(time_scale=TIME_SCALE, max_wall_s=60.0)
        yield scheduler
        scheduler.close()


class TestProtocolShape:
    def test_simulator_satisfies_protocol(self):
        assert isinstance(Simulator(), EngineProtocol)

    def test_realtime_scheduler_satisfies_protocol(self):
        scheduler = RealtimeScheduler(time_scale=TIME_SCALE)
        try:
            assert isinstance(scheduler, EngineProtocol)
        finally:
            scheduler.close()

    def test_protocol_is_structural(self):
        class Impostor:
            pass

        assert not isinstance(Impostor(), EngineProtocol)


class TestConformance:
    def test_schedule_fires_in_delay_order(self, engine):
        fired = []
        engine.schedule(200.0, fired.append, "late")
        engine.schedule(100.0, fired.append, "early")
        engine.call_soon(fired.append, "soon")
        engine.run_until_idle()
        assert fired == ["soon", "early", "late"]

    def test_post_is_fire_and_forget(self, engine):
        fired = []
        assert engine.post(100.0, fired.append, "posted") is None
        engine.run_until_idle()
        assert fired == ["posted"]

    def test_schedule_at_absolute_time(self, engine):
        fired = []
        engine.schedule_at(engine.now + 150.0, fired.append, "abs")
        engine.run_until_idle()
        assert fired == ["abs"]

    def test_cancel_prevents_execution(self, engine):
        fired = []
        handle = engine.schedule(100.0, fired.append, "cancelled")
        engine.schedule(100.0, fired.append, "kept")
        handle.cancel()
        engine.run_until_idle()
        assert fired == ["kept"]

    def test_run_for_advances_the_clock(self, engine):
        before = engine.now
        engine.run_for(250.0)
        assert engine.now >= before + 250.0

    def test_run_until_predicate(self, engine):
        fired = []
        engine.schedule(100.0, fired.append, 1)
        engine.schedule(200.0, fired.append, 2)
        engine.schedule(10_000.0, fired.append, 3)
        assert engine.run_until(lambda: len(fired) >= 2, timeout=5_000.0)
        assert len(fired) >= 2

    def test_run_until_timeout_returns_false(self, engine):
        assert not engine.run_until(lambda: False, timeout=100.0)

    def test_run_until_timeout_ends_at_the_deadline(self, engine):
        """A timed-out "wait up to T" has waited T on both engines — with
        nothing queued, and with the next event beyond the deadline."""
        start = engine.now
        assert not engine.run_until(lambda: False, timeout=100.0)
        assert engine.now >= start + 100.0
        engine.schedule(10_000.0, lambda: None).cancel()
        engine.schedule(10_000.0, lambda: None)
        start = engine.now
        assert not engine.run_until(lambda: False, timeout=100.0)
        assert engine.now >= start + 100.0

    def test_periodic_task_fires_until_stopped(self, engine):
        hits = []
        task = engine.schedule_periodic(100.0, lambda: hits.append(1))
        assert engine.run_until(lambda: len(hits) >= 3, timeout=30_000.0)
        task.stop()
        assert task.stopped

    def test_schedule_periodic_returns_the_one_periodic_task(self, engine):
        """The fault injector pauses and restarts a crashed node's
        maintenance through exactly these four members."""
        def jitter():
            return 0.0

        task = engine.schedule_periodic(100.0, lambda: None, jitter_fn=jitter)
        assert type(task) is PeriodicTask
        assert task.interval == 100.0 and task.jitter_fn is jitter
        assert not task.stopped
        task.stop()
        assert task.stopped

    def test_events_executed_counts_up(self, engine):
        before = engine.events_executed
        for _ in range(3):
            engine.call_soon(lambda: None)
        engine.run_until_idle()
        assert engine.events_executed >= before + 3

    def test_pending_events_drains_to_zero(self, engine):
        engine.schedule(100.0, lambda: None)
        engine.schedule(200.0, lambda: None)
        assert engine.pending_events >= 2
        engine.run_until_idle()
        assert engine.pending_events == 0

    def test_step_hook_observes_each_event(self, engine):
        steps = []
        engine.set_step_hook(lambda now, seq: steps.append((now, seq)))
        engine.schedule(100.0, lambda: None)
        engine.schedule(200.0, lambda: None)
        engine.run_until_idle()
        assert len(steps) == 2
        engine.set_step_hook(None)
        engine.call_soon(lambda: None)
        engine.run_until_idle()
        assert len(steps) == 2

    def test_idle_source_gates_the_idle_hook(self, engine):
        quiet = [False]
        idled = []
        engine.add_idle_source(lambda: quiet[0])
        engine.set_idle_hook(lambda: idled.append(1))
        # Queue empty but the source reports outstanding work: no idle
        # hook.  (max_events=0 bounds the live pump, which otherwise
        # spins waiting for quiescence that cannot arrive.)
        engine.run_until_idle(max_events=0)
        assert idled == []
        quiet[0] = True
        engine.run_until_idle()
        assert idled == [1]
