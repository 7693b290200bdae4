"""The causal observability plane.

One :class:`Observability` object per federation bundles the three parts
of the subsystem:

* ``obs.recorder`` — a :class:`~repro.obs.spans.SpanRecorder` (or the
  shared :data:`~repro.obs.spans.NULL_RECORDER` when tracing is off)
  collecting cross-node span trees on the simulation clock;
* ``obs.metrics`` — the plane's :class:`~repro.obs.metrics.MetricsRegistry`:
  flat counters plus labeled counters/gauges/histograms (``plane.counters``
  is the same object);
* analysis/export helpers re-exported from
  :mod:`~repro.obs.critical_path` and :mod:`~repro.obs.export`.

Construction is cheap and safe with ``enabled=False`` (the default for
apps built standalone in tests): the recorder is the null singleton and
every emit site reduces to one ``if recorder.enabled:`` branch.
"""

from __future__ import annotations

from typing import Any

from repro.obs.critical_path import (
    PathSegment,
    critical_path,
    format_breakdown,
    format_path,
    step_breakdown,
)
from repro.obs.export import (
    to_chrome_trace,
    to_json,
    write_chrome_trace,
    write_json,
)
from repro.obs.metrics import (
    LabeledCounter,
    LabeledGauge,
    LabeledHistogram,
    MetricsRegistry,
)
from repro.obs.spans import (
    NULL_RECORDER,
    NullRecorder,
    Span,
    SpanRecorder,
    TraceContext,
)

__all__ = [
    "Observability",
    "Span",
    "SpanRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "TraceContext",
    "MetricsRegistry",
    "LabeledCounter",
    "LabeledGauge",
    "LabeledHistogram",
    "PathSegment",
    "critical_path",
    "step_breakdown",
    "format_breakdown",
    "format_path",
    "to_json",
    "to_chrome_trace",
    "write_json",
    "write_chrome_trace",
]


class Observability:
    """Per-federation bundle of span recorder + labeled metrics."""

    #: Histogram fed by :meth:`end_step` for every finished protocol step.
    STEP_HISTOGRAM = "query.step.duration_ms"
    #: Labeled counter (also counted flat as ``query.step.<step>``).
    STEP_COUNTER = "query.step"

    def __init__(
        self,
        sim=None,
        enabled: bool = False,
        max_spans: int = 200_000,
    ):
        self.enabled = bool(enabled and sim is not None)
        if self.enabled:
            self.recorder = SpanRecorder(sim, max_spans=max_spans)
        else:
            self.recorder = NULL_RECORDER
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    def end_step(self, span: Span, status: str = "ok", **labels: Any) -> Span:
        """Close a protocol-step span and feed the per-step metrics.

        Centralizes the pattern every instrumented step uses: end the
        span, observe its duration into the ``query.step.duration_ms``
        histogram keyed by ``{step, site}``, and bump the labeled step
        counter (also counted flat as ``query.step.<step>``).
        """
        self.recorder.end(span, status=status, **labels)
        step = str(span.labels.get("step", span.name))
        site = str(span.labels.get("site", ""))
        self.metrics.histogram(self.STEP_HISTOGRAM).observe(
            span.duration_ms, step=step, site=site
        )
        self.metrics.counter(self.STEP_COUNTER).increment(step=step)
        return span

    def step_summary(self) -> str:
        """The per-step histogram table printed by the CLI when tracing."""
        return self.metrics.format_histogram(self.STEP_HISTOGRAM)

    def query_roots(self):
        """Finished root query spans, in start order."""
        return [s for s in self.recorder.roots("query") if s.end_ms is not None]
