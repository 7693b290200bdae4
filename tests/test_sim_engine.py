"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_clock_custom_start():
    assert Simulator(start_time=42.0).now == 42.0


def test_schedule_and_run_advances_clock(sim):
    fired = []
    sim.schedule(10.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [10.0]
    assert sim.now == 10.0


def test_events_run_in_time_order(sim):
    order = []
    sim.schedule(5.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(9.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order(sim):
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(3.0, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_cancel_prevents_execution(sim):
    fired = []
    event = sim.schedule(1.0, fired.append, 1)
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent(sim):
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_callback_can_schedule_more_work(sim):
    seen = []

    def first():
        seen.append(sim.now)
        sim.schedule(2.0, second)

    def second():
        seen.append(sim.now)

    sim.schedule(1.0, first)
    sim.run()
    assert seen == [1.0, 3.0]


def test_run_until_time_bound(sim):
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(100.0, fired.append, "late")
    sim.run(until=50.0)
    assert fired == ["early"]
    assert sim.now == 50.0
    sim.run()
    assert fired == ["early", "late"]


def test_run_max_events(sim):
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_run_until_predicate(sim):
    box = []
    sim.schedule(1.0, box.append, 1)
    sim.schedule(2.0, box.append, 2)
    assert sim.run_until(lambda: len(box) == 1)
    assert box == [1]


def test_run_until_predicate_timeout(sim):
    box = []
    sim.schedule(100.0, box.append, 1)
    assert not sim.run_until(lambda: bool(box), timeout=10.0)


def test_run_until_with_empty_queue_returns_predicate_value(sim):
    assert sim.run_until(lambda: True)
    assert not sim.run_until(lambda: False)


def test_schedule_at_absolute_time(sim):
    fired = []
    sim.schedule_at(7.5, fired.append, "x")
    sim.run()
    assert sim.now == 7.5 and fired == ["x"]


def test_call_soon_runs_at_current_time(sim):
    sim.schedule(5.0, lambda: sim.call_soon(marks.append, sim.now))
    marks = []
    sim.run()
    assert marks == [5.0]


def test_events_executed_counter(sim):
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 4


def test_pending_events_excludes_cancelled(sim):
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    drop.cancel()
    assert sim.pending_events == 1
    del keep


def test_step_executes_single_event(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step()
    assert fired == ["a"]
    assert sim.step()
    assert not sim.step()


class TestPeriodicTask:
    def test_fires_repeatedly(self, sim):
        marks = []
        task = sim.schedule_periodic(10.0, lambda: marks.append(sim.now))
        sim.run(until=35.0)
        task.stop()
        assert marks == [10.0, 20.0, 30.0]

    def test_stop_halts_firing(self, sim):
        marks = []
        task = sim.schedule_periodic(10.0, lambda: marks.append(sim.now))
        sim.schedule(15.0, task.stop)
        sim.run(until=100.0)
        assert marks == [10.0]
        assert task.stopped

    def test_jitter_applied(self, sim):
        marks = []
        sim.schedule_periodic(10.0, lambda: marks.append(sim.now), jitter_fn=lambda: 2.5)
        sim.run(until=30.0)
        assert marks == [12.5, 25.0]

    def test_zero_interval_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_periodic(0.0, lambda: None)

    def test_stop_inside_callback(self, sim):
        marks = []
        holder = {}

        def fire():
            marks.append(sim.now)
            holder["task"].stop()

        holder["task"] = sim.schedule_periodic(5.0, fire)
        sim.run(until=50.0)
        assert marks == [5.0]


class TestBatchedCore:
    """The batch-drain run loop: execution order, pooling, run helpers."""

    def test_mixed_post_schedule_cancel_order(self):
        """Pooled posts, handle-returning schedules, a same-time join and a
        cancellation interleave in strict (time, seq) order."""
        sim = Simulator()
        trace = []
        sim.set_step_hook(lambda t, seq: trace.append((t, seq)))
        fired = []
        for tag in range(4):  # a same-timestamp burst
            sim.post(5.0, fired.append, ("burst", tag))
        sim.schedule(1.0, fired.append, ("early", 0))

        def mid_batch():
            fired.append(("mid", sim.now))
            sim.post(0.0, fired.append, ("joined", sim.now))  # same-time join
            sim.post(2.0, fired.append, ("later", sim.now))

        sim.schedule(5.0, mid_batch)
        doomed = sim.schedule(3.0, fired.append, ("cancelled", 0))
        doomed.cancel()
        sim.run()
        assert fired == [("early", 0), ("burst", 0), ("burst", 1), ("burst", 2),
                         ("burst", 3), ("mid", 5.0), ("joined", 5.0),
                         ("later", 5.0)]
        assert trace == sorted(trace)
        assert [t for t, _ in trace] == [1.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 7.0]

    def test_post_recycles_events_through_the_pool(self):
        sim = Simulator()
        sim.post(1.0, lambda: None)
        sim.run()
        assert len(sim._pool) == 1
        pooled = sim._pool[-1]
        sim.post(2.0, lambda: None)  # reuses the pooled Event object
        assert not sim._pool
        assert sim._heap[0] is pooled
        sim.run()

    def test_same_time_posts_join_the_running_batch(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.post(0.0, order.append, "joined")

        sim.post(1.0, first)
        sim.post(1.0, order.append, "second")
        sim.run()
        assert order == ["first", "second", "joined"]

    def test_run_for(self):
        sim = Simulator()
        fired = []
        sim.post(10.0, fired.append, 1)
        sim.post(30.0, fired.append, 2)
        sim.run_for(20.0)
        assert fired == [1] and sim.now == 20.0
        with pytest.raises(SimulationError):
            sim.run_for(-1.0)

    def test_run_until_idle_respects_max_events(self):
        sim = Simulator()
        fired = []
        for _ in range(5):
            sim.post(1.0, fired.append, 1)  # one batch of five
        sim.run_until_idle(max_events=3)
        assert len(fired) == 3
        sim.run_until_idle()
        assert len(fired) == 5

    def test_post_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().post(-0.1, lambda: None)
