"""Labeled metrics: instruments, their flat counters, determinism."""

import json

import pytest

from repro.obs.metrics import (
    LabeledCounter,
    LabeledGauge,
    LabeledHistogram,
    MetricsRegistry,
    _label_key,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestLabelNormalization:
    def test_kwarg_order_is_irrelevant(self):
        assert _label_key({"site": "A", "step": "probe"}) == \
            _label_key({"step": "probe", "site": "A"})

    def test_values_are_stringified(self):
        assert _label_key({"attempt": 2}) == (("attempt", "2"),)


class TestLabeledCounter:
    def test_increment_and_get_per_label_set(self, registry):
        counter = registry.counter("query.step")
        counter.increment(step="probe", site="A")
        counter.increment(step="probe", site="A")
        counter.increment(step="anycast", site="A")
        assert counter.get(site="A", step="probe") == 2
        assert counter.get(step="anycast", site="A") == 1
        assert counter.get(step="missing") == 0
        assert counter.total() == 3

    def test_increment_mirrors_flat_under_mirror_label(self, registry):
        registry.counter("query.step").increment(step="probe", site="A")
        registry.counter("query.step").increment(step="probe", site="B")
        # The flat family collapses labels onto the first FLAT_LABEL.
        assert registry.get("query.step.probe") == 2

    def test_mirror_falls_back_to_bare_name(self, registry):
        registry.counter("obs.events").increment(site="A")
        assert registry.get("obs.events") == 1

    def test_mirror_prefers_step_over_kind(self, registry):
        registry.counter("f").increment(step="s", kind="k")
        assert registry.get("f.s") == 1
        assert registry.get("f.k") == 0

    def test_existing_flat_families_are_untouched(self, registry):
        registry.increment("scribe.acc_cache.hit", 5)
        registry.counter("query.step").increment(step="probe")
        assert registry.get("scribe.acc_cache.hit") == 5
        assert registry.get("query.step.probe") == 1


class TestLabeledGauge:
    def test_set_add_get(self, registry):
        gauge = registry.gauge("inflight")
        gauge.set(3.0, site="A")
        assert gauge.get(site="A") == 3.0
        assert gauge.add(2.0, site="A") == 5.0
        assert gauge.add(-1.0, site="B") == -1.0
        assert gauge.get(site="missing") == 0.0


class TestLabeledHistogram:
    def test_observe_count_samples(self, registry):
        hist = registry.histogram("lat")
        for value in (10.0, 20.0, 30.0):
            hist.observe(value, step="probe")
        assert hist.count(step="probe") == 3
        assert hist.samples(step="probe") == [10.0, 20.0, 30.0]
        assert hist.count(step="other") == 0

    def test_summary_statistics(self, registry):
        hist = registry.histogram("lat")
        for value in range(1, 101):
            hist.observe(float(value), step="probe")
        summary = hist.summary(step="probe")
        assert summary["count"] == 100.0
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["p50"] == pytest.approx(50.5)
        assert 90.0 <= summary["p90"] <= 91.0
        assert 99.0 <= summary["p99"] <= 100.0

    def test_summary_raises_on_empty_label_set(self, registry):
        with pytest.raises(KeyError):
            registry.histogram("lat").summary(step="never")

    def test_format_histogram_table(self, registry):
        registry.histogram("lat").observe(12.5, step="probe", site="A")
        table = registry.format_histogram("lat")
        assert "site=A,step=probe" in table
        assert "12.50" in table
        assert registry.format_histogram("nope") == "(no samples for nope)"


class TestMetricsRegistry:
    def test_factories_are_idempotent(self, registry):
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_is_label_order_independent(self):
        def populate(registry, flipped):
            counter = registry.counter("query.step")
            hist = registry.histogram("lat")
            gauge = registry.gauge("depth")
            if flipped:
                counter.increment(site="A", step="probe")
                hist.observe(5.0, site="A", step="probe")
                gauge.set(2.0, tree="t", site="A")
            else:
                counter.increment(step="probe", site="A")
                hist.observe(5.0, step="probe", site="A")
                gauge.set(2.0, site="A", tree="t")
            return registry.labeled_snapshot()

        a = populate(MetricsRegistry(), flipped=False)
        b = populate(MetricsRegistry(), flipped=True)
        assert a == b
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_snapshot_is_plain_json_data(self, registry):
        registry.counter("c").increment(step="s")
        registry.gauge("g").set(1.5, site="A")
        registry.histogram("h").observe(3.0)
        json.dumps(registry.labeled_snapshot())  # must not raise
