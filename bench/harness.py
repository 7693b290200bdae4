"""Host-time estimator and repetition loop shared by the four workloads.

The DES is deterministic, so slice *i* of a schedule is identical work in
every repetition and interference from the host can only add time.  Each
workload therefore replays its schedule on fresh planes, times fixed
slices with ``perf_counter``, and every host-time metric is derived from
the vector of per-slice-index minima over the repetitions.  That removes
the bursts; what is left on a shared box is slow drift (a neighbour on the
sibling hyperthread slows everything for tens of seconds), so a fixed
pure-bytecode chunk runs after every slice, gets the same per-index-minimum
treatment, and host seconds are reported in units of it (README.md,
"Estimator").  Raw per-repetition totals are recorded beside the estimates
but gate nothing.
"""

from __future__ import annotations

import gc
import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Repetition bounds: two replays are the least that proves replay
#: identity and gives the minimum filter something to choose from; past
#: six the minima stop moving on this class of box.
MIN_REPS = 2
MAX_REPS = 6

#: The calibration chunk, and the seconds it takes on the nominal host
#: that "calibrated seconds" refer to (this box on a quiet moment).
CHUNK_ITERS = 25_000
NOMINAL_CHUNK_S = 1.0e-3


def calibration_chunk() -> float:
    """Seconds for one fixed pure-bytecode chunk (host-speed reference)."""
    start = perf_counter()
    x = 0
    for i in range(CHUNK_ITERS):
        x += i * i % 7
    return perf_counter() - start


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100].

    The benchmark's own, not ``repro.metrics.stats``: a metric's definition
    must not move with the code it measures.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of empty sequence")
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


@dataclass
class Rep:
    """Everything one repetition of a workload's schedule produced."""

    #: Host seconds for build + dress + warm-up.
    setup_s: float
    #: Host seconds per slice of the measured schedule, in schedule order.
    slices: List[float]
    #: Host seconds of each calibration chunk interleaved with the slices.
    calibration: List[float]
    #: Operations attempted / failed (errored, timed out, never completed).
    attempted: int
    failed: int
    #: Simulated-time and count end-to-end metrics; bit-identical in
    #: every repetition of the same seed.
    exact: Dict[str, float]
    #: Exact per-layer counts read from public attributes.
    counts: Dict[str, float]
    #: sha256 over every simulation-visible outcome of the schedule.
    signature: str
    #: Sample count behind the simulated-latency percentiles.
    latency_samples: int
    #: Simulated milliseconds the measured schedule covered.
    sim_ms: float
    #: Output-check failures (empty = outputs correct).
    errors: List[str] = field(default_factory=list)
    #: Metrics the host's clock can move (the live arm's message counts).
    host: Dict[str, float] = field(default_factory=dict)
    #: Canonical result rows, kept when another arm must return the same.
    rows: Optional[List[Any]] = None


def _minima(vectors: Sequence[Sequence[float]]) -> List[float]:
    return [min(column) for column in zip(*vectors)]


@dataclass
class Measurement:
    """The repetitions of one workload run."""

    reps: List[Rep]

    @property
    def scale(self) -> float:
        """Calibrated seconds per host second: the nominal chunk time over
        the chunk time this run saw (per-chunk-index minima, averaged)."""
        floor = _minima([r.calibration for r in self.reps])
        return NOMINAL_CHUNK_S / (sum(floor) / len(floor))

    @property
    def minima(self) -> List[float]:
        """Per-slice-index minimum over the repetitions, calibrated seconds."""
        scale = self.scale
        return [s * scale for s in _minima([r.slices for r in self.reps])]

    @property
    def setup_s(self) -> float:
        """Cheapest set-up of the repetitions, calibrated seconds."""
        return min(r.setup_s for r in self.reps) * self.scale

    @property
    def totals(self) -> List[float]:
        """Raw measured seconds per repetition (recorded, never gated)."""
        return [sum(r.slices) for r in self.reps]

    def replay_errors(self) -> List[str]:
        """Repetitions must agree on everything the simulation decides."""
        first = self.reps[0]
        out = []
        for index, rep in enumerate(self.reps[1:], start=1):
            if rep.signature != first.signature:
                out.append(f"repetition {index} signature differs from repetition 0")
            if rep.exact != first.exact:
                out.append(f"repetition {index} exact metrics differ from repetition 0")
        return out


def measure(run_rep: Callable[[], Rep], seconds: float) -> Measurement:
    """Replay ``run_rep`` on fresh planes for ``seconds`` of wall time.

    The schedule is fixed work, so ``seconds`` buys repetitions, not a
    longer schedule: a new one starts while the budget lasts, with at
    least :data:`MIN_REPS` and at most :data:`MAX_REPS`.
    """
    reps: List[Rep] = []
    deadline = perf_counter() + seconds
    while len(reps) < MIN_REPS or (perf_counter() < deadline and len(reps) < MAX_REPS):
        gc.collect()
        reps.append(run_rep())
    return Measurement(reps)


class SliceClock:
    """Times consecutive slices, each followed by ``chunks`` calibration
    chunks (outside the slice's own timing).  ``wrap`` is the tracer's, so
    that a traced pass books the chunks to the benchmark, not to nobody."""

    def __init__(self, wrap: Callable[..., Callable[[], float]], chunks: int = 1) -> None:
        self.chunk = wrap("bench.calibration", calibration_chunk)
        self.chunks = chunks
        self.walls: List[float] = []
        self.calibration: List[float] = []

    def time(self, fn: Callable[..., Any], *args: Any) -> Any:
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.walls.append(perf_counter() - start)
            for _ in range(self.chunks):
                self.calibration.append(self.chunk())


def peak_rss_mb() -> float:
    """Peak resident set of this process (MB; ``ru_maxrss`` is KiB on Linux)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """min / median / max of a recorded (ungated) sample."""
    return {"min": min(values), "median": statistics.median(values),
            "max": max(values), "n": len(values)}
