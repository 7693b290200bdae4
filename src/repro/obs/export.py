"""Deterministic trace exporters: plain JSON and Chrome ``trace_event``.

Both exporters emit *bytes-stable* output: spans are ordered by a total
key, dict keys are sorted, and every id comes from per-recorder counters
— so two runs with the same seed produce identical files (asserted by
``tests/test_obs_exporters.py``).

The Chrome format (the JSON array flavour with duration ``"X"`` and
instant ``"i"`` phases) loads directly in Perfetto / ``chrome://tracing``:
each site becomes a process (named via ``"M"`` metadata events), each
node address a thread, and timestamps are microseconds of virtual time.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

from repro.obs.spans import Span


def _sorted_spans(spans: Iterable[Span]) -> List[Span]:
    return sorted(spans, key=lambda s: (s.trace_id, s.start_ms, s.span_id))


def span_to_dict(span: Span) -> Dict[str, Any]:
    """A plain-data view of one span (open spans keep ``end_ms: null``)."""
    return {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "category": span.category,
        "kind": span.kind,
        "start_ms": span.start_ms,
        "end_ms": span.end_ms,
        "status": span.status,
        "labels": {k: _jsonable(v) for k, v in sorted(span.labels.items())},
    }


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def to_json(spans: Iterable[Span]) -> str:
    """The native export: a sorted list of span dicts."""
    payload = [span_to_dict(s) for s in _sorted_spans(spans)]
    return json.dumps(payload, indent=2, sort_keys=True)


def to_chrome_trace(spans: Iterable[Span]) -> str:
    """Chrome ``trace_event`` JSON (duration + instant events).

    Process ids map deterministically onto sorted ``site`` label values
    (pid 0 is the plane-wide catch-all); thread ids onto the numeric
    ``addr`` label when present.  Spans still open at export time have no
    measurable duration and are omitted.
    """
    ordered = [s for s in _sorted_spans(spans) if s.end_ms is not None]
    sites = sorted({str(s.labels["site"]) for s in ordered if "site" in s.labels})
    pid_of = {site: i + 1 for i, site in enumerate(sites)}

    events: List[Dict[str, Any]] = []
    events.append({
        "args": {"name": "plane"},
        "name": "process_name",
        "ph": "M",
        "pid": 0,
        "tid": 0,
    })
    for site in sites:
        events.append({
            "args": {"name": site},
            "name": "process_name",
            "ph": "M",
            "pid": pid_of[site],
            "tid": 0,
        })

    for span in ordered:
        pid = pid_of.get(str(span.labels.get("site", "")), 0)
        tid = _as_tid(span.labels.get("addr", 0))
        args = {k: _jsonable(v) for k, v in sorted(span.labels.items())}
        args["trace_id"] = span.trace_id
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.kind == "instant":
            events.append({
                "args": args,
                "cat": span.category,
                "name": span.name,
                "ph": "i",
                "pid": pid,
                "s": "t",  # thread-scoped instant
                "tid": tid,
                "ts": int(round(span.start_ms * 1000.0)),
            })
        else:
            events.append({
                "args": args,
                "cat": span.category,
                "dur": int(round(span.duration_ms * 1000.0)),
                "name": span.name,
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": int(round(span.start_ms * 1000.0)),
            })

    document = {"displayTimeUnit": "ms", "traceEvents": events}
    return json.dumps(document, indent=None, separators=(",", ":"), sort_keys=True)


def _as_tid(value: Any) -> int:
    """Chrome tids must be ints; hash-free mapping for non-int addresses."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    try:
        return int(value)
    except (TypeError, ValueError):
        # Deterministic content-derived fallback (no process-salted hash()).
        text = str(value)
        return sum((i + 1) * ord(c) for i, c in enumerate(text)) % 1_000_000


def write_json(path: str, spans: Iterable[Span]) -> None:
    """Write :func:`to_json` of ``spans`` to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(spans))
        fh.write("\n")


def write_chrome_trace(path: str, spans: Iterable[Span]) -> None:
    """Write :func:`to_chrome_trace` of ``spans`` to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_chrome_trace(spans))
        fh.write("\n")
