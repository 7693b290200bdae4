"""Critical-path extraction over recorded span trees.

Given a root span (one query) and the set of spans in its trace, the
extractor answers "where did the latency go?" by producing a sequence of
disjoint :class:`PathSegment`\\ s that exactly covers ``[root.start_ms,
root.end_ms]`` — so the segment durations *always* sum to the measured
end-to-end latency, retries and backoff waits included.

The algorithm walks backwards from the root's end: at each cursor
position it picks the child whose interval ends latest at or before the
cursor (the operation that *gated* progress), attributes the child's
window to that child recursively, and attributes any uncovered gap to the
parent itself (self time — local compute, queueing, or waiting on a timer
the tree has no span for).  Overlapping children — concurrent site
fan-outs, racing retries — are handled naturally: only the portion of a
child that actually gates the end-to-end time lands on the path.

Step attribution buckets each segment by its span's ``step`` label
(``probe``, ``anycast``, ``backoff``, ``site_rtt``, ...), falling back to
the span name, so a per-protocol-step latency table falls out directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.obs.metrics import format_table
from repro.obs.spans import Span


@dataclass(frozen=True)
class PathSegment:
    """One disjoint slice of the end-to-end window, attributed to a span."""

    span: Span
    start_ms: float
    end_ms: float
    #: True when this slice is a *gap* — time a span with children spent
    #: itself (queueing, wire transit, waiting on an unspanned timer).
    #: Slices fully occupied by a leaf span are False.
    self_time: bool

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    @property
    def step(self) -> str:
        """The protocol-step bucket this segment charges."""
        return str(self.span.labels.get("step", self.span.name))


def children_index(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    """``span_id -> finished children`` for one trace's spans."""
    index: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent_id is not None and span.end_ms is not None:
            index.setdefault(span.parent_id, []).append(span)
    return index


def critical_path(root: Span, spans: Sequence[Span]) -> List[PathSegment]:
    """The gating chain of ``root``, as disjoint chronological segments.

    ``spans`` is any superset of the trace's spans (extra traces are
    ignored).  Unfinished spans and zero-duration instants never gate and
    are skipped.  The returned segments partition ``[root.start_ms,
    root.end_ms]`` exactly.
    """
    if root.end_ms is None:
        raise ValueError("critical_path requires a finished root span")
    index = children_index([s for s in spans if s.trace_id == root.trace_id])
    segments: List[PathSegment] = []
    _walk(root, root.start_ms, root.end_ms, index, segments)
    segments.reverse()  # collected latest-first; emit chronologically
    return segments


def _walk(
    span: Span,
    lo: float,
    hi: float,
    index: Dict[int, List[Span]],
    out: List[PathSegment],
) -> None:
    """Attribute the window ``[lo, hi]`` of ``span``, latest-first."""
    cursor = hi
    children = index.get(span.span_id, ())
    while cursor > lo:
        best: Optional[Span] = None
        for child in children:
            if child.kind == "instant" or child.duration_ms <= 0:
                continue
            if child.start_ms >= cursor or child.end_ms is None:
                continue
            end = min(child.end_ms, cursor)
            if end <= max(child.start_ms, lo):
                continue
            if best is None or end > min(best.end_ms, cursor) or (
                end == min(best.end_ms, cursor) and child.span_id > best.span_id
            ):
                best = child
        if best is None:
            out.append(PathSegment(span, lo, cursor, self_time=bool(children)))
            return
        child_hi = min(best.end_ms, cursor)
        if child_hi < cursor:
            # The span itself gated between the child's end and the cursor.
            out.append(PathSegment(span, child_hi, cursor, self_time=True))
        child_lo = max(best.start_ms, lo)
        _walk(best, child_lo, child_hi, index, out)
        cursor = child_lo


def step_breakdown(segments: Sequence[PathSegment]) -> Dict[str, float]:
    """Total critical-path milliseconds charged to each protocol step."""
    totals: Dict[str, float] = {}
    for seg in segments:
        totals[seg.step] = totals.get(seg.step, 0.0) + seg.duration_ms
    return totals


def format_breakdown(segments: Sequence[PathSegment]) -> str:
    """The per-step latency table the ``trace`` CLI subcommand prints."""
    totals = step_breakdown(segments)
    grand = sum(totals.values())
    rows = []
    for step, ms in sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])):
        share = (100.0 * ms / grand) if grand else 0.0
        rows.append([step, f"{ms:.2f}", f"{share:.1f}%"])
    rows.append(["total", f"{grand:.2f}", "100.0%" if grand else "0.0%"])
    return format_table(["step", "critical_ms", "share"], rows)


def format_path(segments: Sequence[PathSegment]) -> str:
    """A chronological listing of the path, one row per segment."""
    rows = []
    for seg in segments:
        rows.append([
            f"{seg.start_ms:.2f}",
            f"{seg.end_ms:.2f}",
            f"{seg.duration_ms:.2f}",
            seg.span.name + (" (self)" if seg.self_time else ""),
            seg.step,
        ])
    return format_table(["start_ms", "end_ms", "dur_ms", "span", "step"], rows)
