"""The plane-wide metrics registry: flat counters plus labeled instruments.

:class:`MetricsRegistry` is one object shared by every node of a plane
(``plane.counters`` and ``plane.obs.metrics`` are the same registry), so
experiments read federation-wide totals from a single place.

Flat counters are plain monotonically-increasing integers addressed by
dotted names; unknown names read as zero, so callers never pre-register.
Established families include ``query.plan.*`` (one per routed predicate,
by route), ``query.retry.*`` (probe / anycast / site protocol-step
retries), ``query.degraded`` and ``query.orphan_release`` (failure-path
settlements), ``faults.*`` (injected crashes, partitions, and
message-rule hits), and — when span tracing is on — ``query.step.*``, one
counter per finished protocol-step span.

Three labeled instrument kinds sit beside them, all addressed by
``(name, labels)`` where labels is a small dict like
``{"site": "Virginia", "step": "probe"}``:

* :class:`LabeledCounter` — monotonic; every increment also lands in the
  flat counter ``<name>.<primary-label-value>`` (e.g.
  ``query.step.probe``), so flat consumers (``--show-counters``,
  benchmark tables) see the labeled families too.
* :class:`LabeledGauge` — a settable last-value instrument.
* :class:`LabeledHistogram` — latency samples with
  count/mean/min/p50/p90/p99/max summaries.

Label sets are normalized to sorted tuples so lookup order never depends
on call-site kwargs order — a determinism requirement for exports.

The summary statistics behind them (:func:`mean`, :func:`stddev`,
:func:`percentile`, :func:`jain_fairness`) and :func:`format_table` live
here too, implemented on the stdlib so the library stays dependency-free.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (raises on empty input)."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def stddev(values: Sequence[float]) -> float:
    """Population standard deviation."""
    if not values:
        raise ValueError("stddev of empty sequence")
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    fraction = rank - low
    lo, hi = ordered[low], ordered[high]
    if lo == hi:
        return lo
    # Clamp: float rounding (e.g. subnormal underflow) must not push the
    # interpolated value outside the [lo, hi] bracket.
    return min(max(lo * (1 - fraction) + hi * fraction, lo), hi)


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly even load distribution.

    Defined for non-negative allocations only (negative shares make the
    index meaningless — it can exceed 1); all-zero input is perfectly
    fair by convention.
    """
    if not values:
        raise ValueError("fairness of empty sequence")
    if any(v < 0 for v in values):
        raise ValueError("fairness of negative allocation")
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width ASCII table for benchmark output."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    """Normalize a label dict to a canonical hashable key."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class LabeledCounter:
    """A monotonic counter family keyed by label sets."""

    def __init__(self, name: str, registry: "MetricsRegistry"):
        self.name = name
        self._registry = registry
        self._values: Dict[LabelKey, int] = {}

    def increment(self, amount: int = 1, **labels: Any) -> int:
        key = _label_key(labels)
        value = self._values.get(key, 0) + amount
        self._values[key] = value
        self._registry.increment(self._registry.flat_name(self.name, labels),
                                 amount)
        return value

    def get(self, **labels: Any) -> int:
        return self._values.get(_label_key(labels), 0)

    def total(self) -> int:
        return sum(self._values.values())

    def series(self) -> List[Tuple[LabelKey, int]]:
        return sorted(self._values.items())


class LabeledGauge:
    """A last-value instrument (queue depths, in-flight counts)."""

    def __init__(self, name: str):
        self.name = name
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(labels)] = value

    def add(self, delta: float, **labels: Any) -> float:
        key = _label_key(labels)
        value = self._values.get(key, 0.0) + delta
        self._values[key] = value
        return value

    def get(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def series(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._values.items())


class LabeledHistogram:
    """Latency samples per label set, summarized with stdlib percentiles."""

    def __init__(self, name: str):
        self.name = name
        self._samples: Dict[LabelKey, List[float]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        self._samples.setdefault(_label_key(labels), []).append(value)

    def count(self, **labels: Any) -> int:
        return len(self._samples.get(_label_key(labels), ()))

    def samples(self, **labels: Any) -> List[float]:
        return list(self._samples.get(_label_key(labels), ()))

    def summary(self, **labels: Any) -> Dict[str, float]:
        values = self._samples.get(_label_key(labels))
        if not values:
            raise KeyError(f"no samples for {self.name} {labels!r}")
        return _summary_of(values)

    def series(self) -> List[Tuple[LabelKey, List[float]]]:
        return sorted(self._samples.items())


class MetricsRegistry:
    """One plane-wide home for flat counters and labeled instruments.

    Creating labeled instruments is idempotent by name; flat counters
    spring into existence on their first ``increment``.
    """

    #: Labels that name a labeled increment's flat counter, in preference
    #: order — the first one present wins (``query.step.probe``).
    FLAT_LABELS: Sequence[str] = ("step", "kind", "action")

    def __init__(self) -> None:
        self._flat: Dict[str, int] = {}
        self._counters: Dict[str, LabeledCounter] = {}
        self._gauges: Dict[str, LabeledGauge] = {}
        self._histograms: Dict[str, LabeledHistogram] = {}

    # ------------------------------------------------------------------
    # Flat counters
    # ------------------------------------------------------------------
    def increment(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` to flat counter ``name`` and return the new value."""
        value = self._flat.get(name, 0) + amount
        self._flat[name] = value
        return value

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 when never incremented)."""
        return self._flat.get(name, 0)

    def names(self, prefix: Optional[str] = None) -> List[str]:
        """Sorted flat-counter names, optionally filtered by dotted prefix."""
        return sorted(n for n in self._flat if prefix is None or n.startswith(prefix))

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, int]:
        """A point-in-time copy of the flat counters (mutations don't leak back)."""
        return {n: self._flat[n] for n in self.names(prefix)}

    def format(self, prefix: Optional[str] = None) -> str:
        """An aligned two-column table of (counter, value), for CLI output."""
        rows = [[name, self._flat[name]] for name in self.names(prefix)]
        return format_table(["counter", "value"], rows)

    def flat_name(self, name: str, labels: Dict[str, Any]) -> str:
        """The flat counter a labeled increment of ``name`` also lands in."""
        for label in self.FLAT_LABELS:
            if label in labels:
                return f"{name}.{labels[label]}"
        return name

    # ------------------------------------------------------------------
    # Labeled instruments
    # ------------------------------------------------------------------
    def counter(self, name: str) -> LabeledCounter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = LabeledCounter(name, self)
        return inst

    def gauge(self, name: str) -> LabeledGauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = LabeledGauge(name)
        return inst

    def histogram(self, name: str) -> LabeledHistogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = LabeledHistogram(name)
        return inst

    def labeled_snapshot(self) -> Dict[str, Any]:
        """A deterministic plain-data dump of every labeled instrument."""
        return {
            "counters": {
                name: [[list(map(list, key)), value] for key, value in inst.series()]
                for name, inst in sorted(self._counters.items())
            },
            "gauges": {
                name: [[list(map(list, key)), value] for key, value in inst.series()]
                for name, inst in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    _format_labels(key): _summary_of(values)
                    for key, values in inst.series()
                }
                for name, inst in sorted(self._histograms.items())
            },
        }

    def format_histogram(self, name: str) -> str:
        """An aligned summary table of one histogram family, for the CLI."""
        inst = self._histograms.get(name)
        if inst is None or not inst.series():
            return f"(no samples for {name})"
        rows = []
        for key, values in inst.series():
            rows.append([
                _format_labels(key) or "(all)",
                len(values),
                f"{mean(values):.2f}",
                f"{percentile(values, 50):.2f}",
                f"{percentile(values, 90):.2f}",
                f"{percentile(values, 99):.2f}",
                f"{max(values):.2f}",
            ])
        return format_table(
            ["labels", "count", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms"],
            rows,
        )


def _format_labels(key: LabelKey) -> str:
    return ",".join(f"{k}={v}" for k, v in key)


def _summary_of(values: List[float]) -> Dict[str, float]:
    return {
        "count": float(len(values)),
        "mean": mean(values),
        "min": min(values),
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
        "p99": percentile(values, 99),
        "max": max(values),
    }
