"""Unit tests for the concurrent-query admission window."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.query.admission import AdmissionController
from repro.sim.futures import Future


def make_thunk(sim, started, tag):
    """A thunk that records its admission and returns a manual Future."""
    inner = Future(sim)

    def start():
        started.append(tag)
        return inner

    return start, inner


class TestAdmissionWindow:
    def test_window_must_be_positive(self, sim):
        with pytest.raises(ValueError):
            AdmissionController(sim, window=0)

    def test_bounds_in_flight_and_queues_fifo(self, sim):
        admission = AdmissionController(sim, window=2)
        started, inners, dones = [], [], []
        for tag in range(5):
            start, inner = make_thunk(sim, started, tag)
            inners.append(inner)
            dones.append(admission.submit(start))

        assert started == [0, 1]  # only the window is admitted
        assert admission.in_flight == 2 and admission.queued == 3
        assert admission.max_queued == 3

        inners[0].resolve("r0")
        assert started == [0, 1, 2]  # a slot freed -> FIFO next admitted
        assert admission.in_flight == 2 and admission.queued == 2
        assert dones[0].resolved and dones[0].value == "r0"

        for i in (1, 2, 3, 4):
            inners[i].resolve(f"r{i}")
        assert started == [0, 1, 2, 3, 4]
        assert admission.in_flight == 0 and admission.queued == 0
        assert [d.value for d in dones] == ["r0", "r1", "r2", "r3", "r4"]

    def test_forwards_exception_values_and_keeps_pumping(self, sim):
        admission = AdmissionController(sim, window=1)
        started, boom = [], RuntimeError("boom")
        start_a, inner_a = make_thunk(sim, started, "a")
        start_b, inner_b = make_thunk(sim, started, "b")
        done_a = admission.submit(start_a)
        done_b = admission.submit(start_b)

        inner_a.resolve(boom)
        assert done_a.resolved and done_a.value is boom
        assert started == ["a", "b"]  # the failure released its slot
        inner_b.resolve("ok")
        assert done_b.value == "ok"

    def test_wait_stats_by_label(self, sim):
        admission = AdmissionController(sim, window=1)
        started = []
        start_a, inner_a = make_thunk(sim, started, "a")
        start_b, inner_b = make_thunk(sim, started, "b")
        admission.submit(start_a, label="east")
        admission.submit(start_b, label="west")

        # "east" admitted instantly; "west" waits until the slot frees.
        sim.schedule(250.0, lambda: inner_a.resolve("r0"))
        sim.run()
        inner_b.resolve("r1")

        stats = admission.wait_stats()
        assert stats["east"] == {"count": 1.0, "mean_ms": 0.0, "max_ms": 0.0}
        assert stats["west"]["count"] == 1.0
        assert stats["west"]["mean_ms"] == pytest.approx(250.0)
        assert stats["west"]["max_ms"] == pytest.approx(250.0)

    def test_wait_stats_pools_unlabeled_under_empty_string(self, sim):
        admission = AdmissionController(sim, window=2)
        started = []
        for tag in range(2):
            start, inner = make_thunk(sim, started, tag)
            admission.submit(start)
            inner.resolve(tag)
        assert list(admission.wait_stats()) == [""]
        assert admission.wait_stats()[""]["count"] == 2.0

    def test_admitted_counter_and_registry(self, sim):
        counters = MetricsRegistry()
        admission = AdmissionController(sim, window=4, counters=counters)
        started = []
        for tag in range(3):
            start, inner = make_thunk(sim, started, tag)
            admission.submit(start)
            inner.resolve(tag)
        assert admission.admitted == 3
        assert counters.get("query.admitted") == 3
        assert admission.max_queued <= 1
