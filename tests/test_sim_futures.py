"""Unit tests for simulation futures."""

import weakref

import pytest

from repro.sim.futures import Future, FutureError, FutureTimeout, gather


def test_resolve_and_value(sim):
    future = Future(sim)
    future.resolve(41)
    assert future.resolved
    assert future.value == 41


def test_value_before_resolve_raises(sim):
    with pytest.raises(FutureError):
        Future(sim).value


def test_double_resolve_raises(sim):
    future = Future(sim)
    future.resolve(1)
    with pytest.raises(FutureError):
        future.resolve(2)


def test_try_resolve_reports_effect(sim):
    future = Future(sim)
    assert future.try_resolve(1)
    assert not future.try_resolve(2)
    assert future.value == 1


def test_callback_after_resolution_fires_immediately(sim):
    future = Future(sim)
    future.resolve("x")
    got = []
    future.add_callback(got.append)
    assert got == ["x"]


def test_callbacks_fire_in_order(sim):
    future = Future(sim)
    got = []
    future.add_callback(lambda v: got.append(("a", v)))
    future.add_callback(lambda v: got.append(("b", v)))
    future.resolve(9)
    assert got == [("a", 9), ("b", 9)]


def test_timeout_resolves_with_future_timeout(sim):
    future = Future(sim, timeout=10.0)
    sim.run()
    assert isinstance(future.value, FutureTimeout)


def test_resolution_cancels_timeout(sim):
    future = Future(sim, timeout=10.0)
    sim.schedule(5.0, future.resolve, "ok")
    sim.run()
    assert future.value == "ok"



def test_resolved_future_is_freed_long_before_its_timeout(sim):
    """A future resolved at t=5 with a 1,000 ms timeout is unreachable as
    soon as its caller drops it — its cancelled timer holds nothing — so
    the value it carries goes with it, long before t=1000."""

    class Value:
        pass

    future = Future(sim, timeout=1_000.0)
    value = Value()
    ref = weakref.ref(value)
    sim.schedule(5.0, future.resolve, value)
    sim.schedule(500.0, lambda: None)  # other work queued ahead of the timer
    del value
    sim.run(until=10.0)
    assert future.value is ref()
    del future
    assert ref() is None
    assert sim.now == 10.0


def test_result_drives_simulator(sim):
    future = Future(sim)
    sim.schedule(3.0, future.resolve, 123)
    assert future.result() == 123
    assert sim.now == 3.0


def test_result_raises_on_timeout(sim):
    future = Future(sim, timeout=1.0)
    with pytest.raises(FutureTimeout):
        future.result()


class TestGather:
    def test_gathers_in_order(self, sim):
        futures = [Future(sim) for _ in range(3)]
        combined = gather(sim, futures)
        # Resolve out of order.
        futures[2].resolve("c")
        futures[0].resolve("a")
        futures[1].resolve("b")
        assert combined.value == ["a", "b", "c"]

    def test_empty_gather_resolves(self, sim):
        combined = gather(sim, [])
        sim.run()
        assert combined.value == []

    def test_individual_timeouts_appear_in_results(self, sim):
        fast = Future(sim)
        slow = Future(sim, timeout=5.0)
        combined = gather(sim, [fast, slow])
        fast.resolve(1)
        sim.run()
        assert combined.value[0] == 1
        assert isinstance(combined.value[1], FutureTimeout)

    def test_overall_timeout(self, sim):
        never = Future(sim)
        combined = gather(sim, [never], timeout=5.0)
        sim.run()
        assert isinstance(combined.value, FutureTimeout)

    def test_gather_with_pre_resolved(self, sim):
        done = Future(sim)
        done.resolve("pre")
        pending = Future(sim)
        combined = gather(sim, [done, pending])
        pending.resolve("post")
        assert combined.value == ["pre", "post"]
