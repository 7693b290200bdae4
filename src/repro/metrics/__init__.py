"""Measurement utilities: latency recorders, CDFs, memory."""

from repro.metrics.memory import deep_sizeof
from repro.metrics.stats import (
    LatencyRecorder,
    cdf_points,
    coefficient_of_variation,
    jain_fairness,
    mean,
    percentile,
    stddev,
)

__all__ = [
    "LatencyRecorder",
    "cdf_points",
    "coefficient_of_variation",
    "deep_sizeof",
    "jain_fairness",
    "mean",
    "percentile",
    "stddev",
]
