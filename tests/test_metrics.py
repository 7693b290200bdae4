"""Tests for statistics, counters, and memory measurement utilities."""

import pytest

from benchmarks.conftest import deep_sizeof
from repro.obs.metrics import (
    LabeledHistogram,
    MetricsRegistry,
    format_table,
    jain_fairness,
    mean,
    percentile,
    stddev,
)


class TestStats:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    def test_stddev(self):
        assert stddev([2, 2, 2]) == 0.0
        assert stddev([0, 10]) == 5.0

    def test_percentile_interpolation(self):
        values = [10, 20, 30, 40]
        assert percentile(values, 0) == 10
        assert percentile(values, 100) == 40
        assert percentile(values, 50) == 25.0

    def test_percentile_single_value(self):
        assert percentile([7], 99) == 7

    def test_percentile_bad_q(self):
        with pytest.raises(ValueError):
            percentile([1], 150)

    def test_percentile_boundary_q(self):
        # q=0 and q=100 are valid (inclusive bounds) and hit the extremes
        # exactly, with no interpolation drift.
        values = [3.5, -1.0, 9.25, 4.0]
        assert percentile(values, 0) == -1.0
        assert percentile(values, 100) == 9.25
        assert percentile([42.0], 0) == 42.0
        assert percentile([42.0], 100) == 42.0
        # Just outside the closed interval must raise, both sides.
        for bad in (-0.0001, 100.0001, -5, 101):
            with pytest.raises(ValueError):
                percentile(values, bad)
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_jain_fairness_bounds(self):
        assert jain_fairness([1, 1, 1, 1]) == pytest.approx(1.0)
        skewed = jain_fairness([100, 0, 0, 0])
        assert skewed == pytest.approx(0.25)
        assert jain_fairness([0, 0]) == 1.0

    def test_jain_fairness_rejects_negative_allocations(self):
        # Negative shares make the index meaningless (it can exceed 1:
        # [1, -1] would give total=0 but squares=2).
        with pytest.raises(ValueError):
            jain_fairness([1.0, -1.0])
        with pytest.raises(ValueError):
            jain_fairness([-0.5])

    def test_format_table_aligns(self):
        text = format_table(["a", "bbb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[:2])


class TestLatencyRecorder:
    """``LabeledHistogram`` in its role as the latency recorder of the
    CLI's ``latency`` sweep and the Figure 9-11 benchmarks."""

    def test_record_and_summary(self):
        recorder = LabeledHistogram("latency_ms")
        for value in (10, 20, 30):
            recorder.observe(value, origin="local")
        summary = recorder.summary(origin="local")
        assert summary["count"] == 3
        assert summary["mean"] == 20
        assert summary["min"] == 10 and summary["max"] == 30

    def test_labels_sorted(self):
        recorder = LabeledHistogram("latency_ms")
        recorder.observe(1, origin="b")
        recorder.observe(1, origin="a")
        assert [key for key, _ in recorder.series()] == [
            (("origin", "a"),), (("origin", "b"),)]

    def test_missing_label_raises(self):
        with pytest.raises(KeyError):
            LabeledHistogram("latency_ms").summary(origin="nope")

    def test_samples_returns_copy(self):
        recorder = LabeledHistogram("latency_ms")
        recorder.observe(1, origin="x")
        recorder.samples(origin="x").append(99)
        assert recorder.count(origin="x") == 1


class TestFlatCounters:
    """Flat-counter semantics of the plane's one ``MetricsRegistry``."""

    def test_unknown_name_reads_zero(self):
        assert MetricsRegistry().get("never.touched") == 0

    def test_increment_returns_new_value(self):
        counters = MetricsRegistry()
        assert counters.increment("a.hit") == 1
        assert counters.increment("a.hit", 4) == 5
        assert counters.get("a.hit") == 5

    def test_snapshot_is_a_copy(self):
        counters = MetricsRegistry()
        counters.increment("a.hit")
        snap = counters.snapshot()
        snap["a.hit"] = 99
        assert counters.get("a.hit") == 1

    def test_snapshot_prefix_filter(self):
        counters = MetricsRegistry()
        counters.increment("scribe.acc_cache.hit")
        counters.increment("query.plan.probe")
        assert counters.snapshot("scribe") == {"scribe.acc_cache.hit": 1}

    def test_names_sorted(self):
        counters = MetricsRegistry()
        counters.increment("z.last")
        counters.increment("a.first")
        assert counters.names() == ["a.first", "z.last"]

    def test_format_is_a_table(self):
        counters = MetricsRegistry()
        counters.increment("cache.hit", 7)
        text = counters.format()
        assert "cache.hit" in text and "7" in text

    def test_labeled_and_flat_increments_share_one_cell(self):
        """A labeled increment and a flat increment of the same dotted name
        land in the same counter — there is no second registry to mirror."""
        registry = MetricsRegistry()
        registry.increment("query.step.probe", 2)
        registry.counter("query.step").increment(step="probe", site="A")
        assert registry.get("query.step.probe") == 3
        assert registry.snapshot("query.step") == {"query.step.probe": 3}
        assert registry.counter("query.step").get(step="probe", site="A") == 1


class TestDeepSizeof:
    def test_bigger_containers_are_bigger(self):
        assert deep_sizeof(list(range(1000))) > deep_sizeof(list(range(10)))

    def test_nested_content_counted(self):
        flat = deep_sizeof({})
        nested = deep_sizeof({"k": {"inner": "x" * 1000}})
        assert nested > flat + 1000

    def test_cycles_terminate(self):
        a = {}
        a["self"] = a
        assert deep_sizeof(a) > 0

    def test_shared_objects_counted_once(self):
        shared = "y" * 10_000
        two_refs = deep_sizeof([shared, shared])
        one_ref = deep_sizeof([shared])
        assert two_refs < one_ref * 1.5

    def test_objects_with_slots(self):
        class Slotted:
            __slots__ = ("a", "b")

            def __init__(self):
                self.a = "x" * 500
                self.b = 1

        assert deep_sizeof(Slotted()) > 500

    def test_objects_with_dict(self):
        class Plain:
            def __init__(self):
                self.data = list(range(100))

        assert deep_sizeof(Plain()) > deep_sizeof([])

    def test_one_seen_set_counts_shared_state_once(self):
        shared = "z" * 10_000
        a = {"ref": shared}
        b = {"ref": shared}
        seen = set()
        together = deep_sizeof(a, seen) + deep_sizeof(b, seen)
        assert together < deep_sizeof(a) + deep_sizeof(b)
