"""Exporter determinism and end-to-end tracing on a live 4-site plane.

Two claims from the observability plane's contract are pinned here:

* **Byte determinism** — two planes built from the same seed export
  byte-identical JSON and Chrome ``trace_event`` files (span ids come
  from per-recorder counters, dict keys are sorted, ordering is total).
* **Exact attribution** — on a real multi-site query the exported span
  tree covers every executed protocol step, and the critical-path
  segment durations sum to the measured end-to-end latency (within the
  1% acceptance bound; in practice exactly), retries and backoff waits
  included.
"""

import itertools
import json

import pytest

import repro.query.executor as executor_mod
from repro.core.plane import RBay, RBayConfig
from repro.faults import MessageRule
from repro.obs import critical_path, step_breakdown, to_chrome_trace, to_json
from repro.obs.spans import SpanRecorder
from repro.sim.engine import Simulator
from repro.workloads.generator import FederationWorkload, WorkloadSpec


def reset_protocol_ids():
    """Query/request ids are process-global; pin them so two same-seed
    runs in one process stay byte-comparable."""
    executor_mod._query_ids = itertools.count(1)
    executor_mod._request_ids = itertools.count(1)


def build_traced_plane(seed=424, jitter=False, tracing=True):
    plane = RBay(RBayConfig(
        seed=seed,
        synthetic_sites=4,
        nodes_per_site=5,
        jitter=jitter,
        tracing=tracing,
    )).build()
    workload = FederationWorkload(plane, WorkloadSpec(
        gate_policies=False, utilization_thresholds=())).apply()
    plane.sim.run()
    plane.settle(1_000.0)
    return plane, workload


def popular_type(workload, site):
    counts = workload.site_instance_population(site)
    return max(counts, key=counts.get)


def run_query(plane, workload, select=2, timeout=60_000.0):
    site = plane.registry[0].name
    sql = (f"SELECT {select} FROM * "
           f"WHERE instance_type = '{popular_type(workload, site)}';")
    customer = plane.make_customer("obs-test", site)
    result = customer.query_once(sql, timeout=timeout).result()
    plane.sim.run()
    return result


class TestExportDeterminism:
    def exports(self, seed):
        reset_protocol_ids()
        plane, workload = build_traced_plane(seed=seed, jitter=True)
        result = run_query(plane, workload)
        spans = plane.obs.recorder.spans()
        return result, to_json(spans), to_chrome_trace(spans)

    def test_same_seed_yields_identical_bytes(self):
        result_a, json_a, chrome_a = self.exports(2017)
        result_b, json_b, chrome_b = self.exports(2017)
        assert result_a.satisfied and result_b.satisfied
        assert json_a == json_b
        assert chrome_a == chrome_b

    def test_different_seed_yields_different_bytes(self):
        _, json_a, _ = self.exports(2017)
        _, json_b, _ = self.exports(2018)
        assert json_a != json_b


class TestJsonExport:
    def test_open_spans_keep_null_end(self):
        recorder = SpanRecorder(Simulator())
        recorder.start("open", category="test", site="A")
        payload = json.loads(to_json(recorder.spans()))
        assert payload[0]["end_ms"] is None
        assert payload[0]["name"] == "open"

    def test_spans_are_sorted_and_labels_jsonable(self):
        sim = Simulator()
        recorder = SpanRecorder(sim)
        recorder.instant("b", weird=object())
        recorder.instant("a", n=1)
        payload = json.loads(to_json(recorder.spans()))
        assert [p["name"] for p in payload] == ["b", "a"]  # by span id
        assert isinstance(payload[0]["labels"]["weird"], str)


class TestChromeExport:
    @pytest.fixture(scope="class")
    def document(self):
        plane, workload = build_traced_plane()
        result = run_query(plane, workload)
        assert result.satisfied
        return json.loads(to_chrome_trace(plane.obs.recorder.spans()))

    def test_document_shape(self, document):
        assert document["displayTimeUnit"] == "ms"
        assert isinstance(document["traceEvents"], list)
        assert document["traceEvents"], "no events exported"

    def test_process_metadata_names_plane_and_sites(self, document):
        meta = [e for e in document["traceEvents"] if e["ph"] == "M"]
        names = [e["args"]["name"] for e in meta]
        assert names[0] == "plane"
        assert names[1:] == sorted(names[1:])  # sites in sorted pid order
        assert [e["pid"] for e in meta] == list(range(len(meta)))

    def test_duration_events_are_perfetto_loadable(self, document):
        xs = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert xs
        for event in xs:
            assert isinstance(event["ts"], int)
            assert isinstance(event["dur"], int)
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert event["dur"] >= 0
            assert "span_id" in event["args"]

    def test_instant_events_are_thread_scoped(self, document):
        instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
        assert instants
        assert all(e["s"] == "t" for e in instants)

    def test_open_spans_are_omitted(self):
        recorder = SpanRecorder(Simulator())
        recorder.start("open")
        recorder.end(recorder.start("closed"))
        document = json.loads(to_chrome_trace(recorder.spans()))
        names = [e["name"] for e in document["traceEvents"] if e["ph"] == "X"]
        assert names == ["closed"]


class TestEndToEndAttribution:
    @pytest.fixture(scope="class")
    def traced_query(self):
        plane, workload = build_traced_plane()
        result = run_query(plane, workload)
        assert result.satisfied
        root = plane.obs.query_roots()[-1]
        spans = plane.obs.recorder.trace(root.trace_id)
        return plane, result, root, spans

    def test_span_tree_covers_all_executed_steps(self, traced_query):
        _, _, _, spans = traced_query
        steps = {s.labels.get("step") for s in spans}
        assert {"probe", "anycast", "site_rtt", "site_exec",
                "commit_release"} <= steps

    def test_root_span_matches_reported_latency(self, traced_query):
        _, result, root, _ = traced_query
        assert root.duration_ms == pytest.approx(result.latency_ms, rel=1e-9)

    def test_critical_path_sums_to_end_to_end_latency(self, traced_query):
        _, result, root, spans = traced_query
        segments = critical_path(root, spans)
        total = sum(seg.duration_ms for seg in segments)
        assert total == pytest.approx(result.latency_ms, rel=0.01)
        # The segments are a disjoint chronological cover.
        assert segments[0].start_ms == root.start_ms
        assert segments[-1].end_ms == root.end_ms
        for before, after in zip(segments, segments[1:]):
            assert before.end_ms == after.start_ms

    def test_step_histogram_and_flat_mirror_are_fed(self, traced_query):
        plane, _, _, _ = traced_query
        hist = plane.obs.metrics.histogram(plane.obs.STEP_HISTOGRAM)
        assert hist.series(), "no step durations observed"
        assert plane.counters.get("query.step.probe") > 0
        assert "probe" in plane.obs.step_summary()


class TestRetriesOnTheCriticalPath:
    def test_forced_site_timeout_produces_backoff_spans(self):
        plane, workload = build_traced_plane(seed=77)
        plane.context.site_timeout_ms = 800.0
        injector = plane.install_faults()
        # Drop the coordinator->gateway requests for one timeout window,
        # then heal so the retries succeed.
        rule = MessageRule(name="cut-site-query", drop_prob=1.0,
                           kind_prefix="direct/query/site_query")
        injector.start_rule(rule)
        plane.sim.schedule_at(plane.sim.now + 1_000.0,
                              lambda: injector.end_rule(rule))
        result = run_query(plane, workload)
        assert result.satisfied
        assert result.retries >= 1

        root = plane.obs.query_roots()[-1]
        spans = plane.obs.recorder.trace(root.trace_id)
        timeouts = [s for s in spans
                    if s.name == "query.site" and s.status == "timeout"]
        backoffs = [s for s in spans if s.name == "query.backoff"]
        assert timeouts, "the dropped attempts never produced timeout spans"
        assert backoffs, "retries never produced backoff spans"
        assert all(s.labels["retry_of"] == "site" for s in backoffs)
        assert all(s.labels["step"] == "backoff" for s in backoffs)

        totals = step_breakdown(critical_path(root, spans))
        assert totals.get("backoff", 0.0) > 0.0, \
            "the backoff wait never landed on the critical path"
        assert sum(totals.values()) == pytest.approx(result.latency_ms,
                                                     rel=0.01)


class TestTracingIsInert:
    def test_tracing_on_and_off_simulate_identically(self):
        def fingerprint(tracing):
            reset_protocol_ids()
            plane, workload = build_traced_plane(seed=9, tracing=tracing)
            result = run_query(plane, workload)
            # ...and it must actually record: spans only in the traced arm.
            assert bool(len(plane.obs.recorder)) == tracing
            return (result.satisfied, result.latency_ms, result.retries,
                    plane.network.messages_sent)

        assert fingerprint(tracing=False) == fingerprint(tracing=True)
