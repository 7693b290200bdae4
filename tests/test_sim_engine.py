"""Unit tests for the discrete-event engine."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import DRAIN_GC_THRESHOLD, SimulationError, Simulator


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


def test_run_until_timeout_runs_everything_due_at_the_deadline(sim):
    """``timeout`` is ``run``'s ``until``: every event due at the deadline
    instant ran, the one after it did not, and the clock is on the deadline."""
    fired = []
    for tag in ("a", "b", "c"):
        sim.schedule(10.0, fired.append, tag)
    sim.schedule(10.5, fired.append, "after")
    assert not sim.run_until(lambda: False, timeout=10.0)
    assert fired == ["a", "b", "c"]
    assert sim.now == 10.0 and sim.pending_events == 1


def test_run_until_leaves_the_clock_alone_unless_it_timed_out(sim):
    sim.schedule(3.0, lambda: None)
    sim.schedule(4.0, lambda: None)
    assert sim.run_until(lambda: True, timeout=10.0) and sim.now == 0.0
    assert sim.run_until(lambda: sim.now >= 3.0, timeout=10.0) and sim.now == 3.0
    assert not sim.run_until(lambda: False, timeout=10.0, max_events=0)
    assert sim.now == 3.0  # stopped by the budget with due work queued


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


def test_cancel_releases_the_args_before_the_due_time(sim):
    """Cancellation stays lazy — the entry is skipped when popped — but the
    cancelled handle lets go of its callback and arguments at once, and
    the queue count, firing order and (time, seq) stream are unchanged."""

    class Payload:
        pass

    payload = Payload()
    ref = weakref.ref(payload)
    steps = []
    sim.set_step_hook(lambda time, seq: steps.append((time, seq)))
    fired = []
    sim.schedule(1.0, fired.append, "a")
    doomed = sim.schedule(100.0, fired.append, payload)
    sim.schedule(2.0, fired.append, "b")
    del payload
    assert ref() is not None
    doomed.cancel()
    assert ref() is None
    assert doomed.cancelled and doomed.time == 100.0
    assert sim.pending_events == 2
    sim.run()
    assert fired == ["a", "b"]
    assert steps == [(1.0, 0), (2.0, 2)]


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
    """The drain loop: execution order across post / schedule / cancel,
    same-instant joins, run helpers.  (The name predates the one-loop
    engine; kept so the test ids stay stable.)"""

    def test_mixed_post_schedule_cancel_order(self):
        """Handle-less posts, handle-returning schedules, a same-time join and a
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


class _ListEngine:
    """Reference model of the drain loop: a sorted list with eager
    cancellation.  An entry is ``[time, seq, tag, spawn]``; firing it records
    ``tag`` and posts one child per delay in ``spawn``."""

    def __init__(self):
        self.now, self.seq, self.executed = 0.0, 0, 0
        self.queue, self.fired, self.steps = [], [], []

    def add(self, delay, tag, spawn):
        entry = [self.now + delay, self.seq, tag, spawn]
        self.seq += 1
        self.queue.append(entry)
        self.queue.sort()  # seq is unique: tag / spawn are never compared
        return entry

    def cancel(self, entry):
        if entry in self.queue:
            self.queue.remove(entry)

    def drain(self, until=None, max_events=None, stop=None):
        before = self.executed
        while not (stop is not None and stop()):
            if not self.queue or (until is not None and self.queue[0][0] > until):
                if until is not None:
                    self.now = max(self.now, until)
                break
            if max_events is not None and self.executed - before >= max_events:
                break
            self.now, seq, tag, spawn = self.queue.pop(0)
            self.executed += 1
            self.steps.append((self.now, seq))
            self.fired.append(tag)
            for delay in spawn:
                self.add(delay, f"{tag}>{delay}", ())
        return self.executed > before


# Quarter-millisecond delays: every sum is exact in binary floating point.
_delay = st.integers(0, 24).map(lambda n: n / 4)
_spawn = st.lists(_delay, max_size=2).map(tuple)
_bound = st.none() | st.integers(0, 4)
_op = st.one_of(
    st.tuples(st.sampled_from(["schedule", "post", "schedule_at"]), _delay, _spawn),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("run"), st.none() | _delay, _bound),
    st.tuples(st.just("run_until"), st.integers(0, 3), st.none() | _delay, _bound),
    st.tuples(st.just("step")),
)


@settings(deadline=None)  # a stall of the shared box is not a failure
@given(st.lists(_op, max_size=40))
def test_drain_loop_matches_the_reference_model(program):
    """Random programs of schedule / post / schedule_at / cancel / callbacks
    that post at +0 and later / run(until) / run(max_events) /
    run_until(pred, timeout) / step() agree with the sorted-list model on
    fired order, the step-hook stream, events_executed, pending_events and
    the clock — after every operation."""
    sim, model = Simulator(), _ListEngine()
    fired, steps, handles = [], [], []
    sim.set_step_hook(lambda time, seq: steps.append((time, seq)))

    def fire(tag, spawn):
        fired.append(tag)
        for delay in spawn:
            sim.post(delay, fire, f"{tag}>{delay}", ())

    for index, (op, *rest) in enumerate(program):
        if op in ("schedule", "post", "schedule_at"):
            delay, spawn = rest
            entry = model.add(delay, index, spawn)
            if op == "post":
                assert sim.post(delay, fire, index, spawn) is None
            elif op == "schedule":
                handles.append((sim.schedule(delay, fire, index, spawn), entry))
            else:
                handles.append(
                    (sim.schedule_at(sim.now + delay, fire, index, spawn), entry))
        elif op == "cancel":
            if handles:
                handle, entry = handles[rest[0] % len(handles)]
                handle.cancel()
                model.cancel(entry)
        elif op == "run":
            until = None if rest[0] is None else sim.now + rest[0]
            sim.run(until=until, max_events=rest[1])
            model.drain(until, rest[1])
        elif op == "run_until":
            target = len(fired) + rest[0]
            deadline = None if rest[1] is None else model.now + rest[1]
            reached = sim.run_until(lambda: len(fired) >= target,
                                    timeout=rest[1], max_events=rest[2])
            model.drain(deadline, rest[2], lambda: len(model.fired) >= target)
            assert reached == (len(model.fired) >= target)
        else:
            assert sim.step() == model.drain(max_events=1)
        assert (sim.now, sim.events_executed, sim.pending_events) == (
            model.now, model.executed, len(model.queue))
        assert fired == model.fired
    assert steps == model.steps


# ----------------------------------------------------------------------
# The drain's collector scope: a raised generation-0 threshold inside,
# the caller's exact threshold outside.
# ----------------------------------------------------------------------

@pytest.fixture
def caller_threshold():
    """Run a test under a caller threshold of (500, 7, 9), then put the
    process's own back."""
    saved = gc.get_threshold()
    gc.set_threshold(500, 7, 9)
    yield (500, 7, 9)
    gc.set_threshold(*saved)


def test_callbacks_run_under_the_drain_threshold(sim, caller_threshold):
    seen = []
    sim.schedule(1.0, lambda: seen.append(gc.get_threshold()))
    sim.run()
    assert seen == [(DRAIN_GC_THRESHOLD, 7, 9)]


def test_every_drain_restores_the_caller_threshold(sim, caller_threshold):
    def boom():
        raise RuntimeError("handler failed")

    for delay in range(4):
        sim.schedule(float(delay), lambda: None)
    sim.run(until=1.0)
    assert gc.get_threshold() == caller_threshold
    assert sim.run_until(lambda: sim.now >= 2.0)
    assert gc.get_threshold() == caller_threshold
    assert sim.step()
    assert gc.get_threshold() == caller_threshold
    sim.schedule(0.0, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    assert gc.get_threshold() == caller_threshold


def test_a_nested_step_keeps_the_outer_drain_threshold(sim, caller_threshold):
    seen = []

    def outer():
        sim.step()  # runs inner
        seen.append(("after step", gc.get_threshold()[0]))

    sim.schedule(1.0, outer)
    sim.schedule(2.0, lambda: seen.append(("inner", gc.get_threshold()[0])))
    sim.run()
    assert seen == [("inner", DRAIN_GC_THRESHOLD),
                    ("after step", DRAIN_GC_THRESHOLD)]
    assert gc.get_threshold() == caller_threshold


@pytest.mark.parametrize("first", [0, DRAIN_GC_THRESHOLD + 1])
def test_a_disabled_or_higher_threshold_is_left_alone(sim, caller_threshold, first):
    gc.set_threshold(first, 7, 9)
    seen = []
    sim.schedule(1.0, lambda: seen.append(gc.get_threshold()))
    sim.run()
    assert seen == [(first, 7, 9)]
    assert gc.get_threshold() == (first, 7, 9)
