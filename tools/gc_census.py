#!/usr/bin/env python3
"""What CPython's garbage collector costs one benchmark workload.

Runs ``bench/run.py --workload W`` in this process, untraced, with a
``gc.callbacks`` hook that books every collection either to the measured
slices (the calls ``bench/``'s ``SliceClock`` times) or to everything else
(set-up, warm-up, the gaps between slices and the calibration chunks).
Prints, per generation and place, the collections and their pause
seconds, and for the slices the objects they freed; the tracked-object
count when each slice clock first runs (a repetition's first, after its
set-up; ``query_mix`` and ``live_queries`` run an untimed warm-up clock
first); and the collector's share of the measured slices.  ``bench/`` is read, never
edited.

``--threshold N`` runs with ``repro.sim.engine.DRAIN_GC_THRESHOLD`` set to
N, which is how the sweep behind that constant is repeated; 700, the
interpreter's default, is the collector as it ran before drains raised
the threshold.

Usage, from the repository root::

    python tools/gc_census.py --workload publish_storm
    python tools/gc_census.py --workload publish_storm --threshold 5000
    python tools/gc_census.py --workload market --quick

``make gc`` runs the first line (``WORKLOAD`` overrides).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


class Census:
    """Collections, pauses and freed objects per generation, booked to the
    measured slices or to everything else (set-up, warm-up, the gaps
    between slices)."""

    PLACES = ("slices", "elsewhere")

    def __init__(self) -> None:
        self.collections = {place: [0, 0, 0] for place in self.PLACES}
        self.pause_s = {place: [0.0, 0.0, 0.0] for place in self.PLACES}
        self.collected = {place: [0, 0, 0] for place in self.PLACES}
        self.slice_s = 0.0
        self.tracked_after_setup: List[int] = []
        self._in_slice = False
        self._place = "elsewhere"
        self._started = 0.0
        #: Every clock seen, kept alive so that identity tells a new
        #: repetition's clock from one already counted.
        self._clocks: List[Any] = []

    def on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._place = "slices" if self._in_slice else "elsewhere"
            self._started = perf_counter()
            return
        generation = info["generation"]
        self.collections[self._place][generation] += 1
        self.pause_s[self._place][generation] += perf_counter() - self._started
        self.collected[self._place][generation] += info["collected"]

    def wrap(self, time: Callable[..., Any]) -> Callable[..., Any]:
        """``SliceClock.time`` with the slice itself booked to the census."""

        def timed(clock: Any, fn: Callable[..., Any], *args: Any) -> Any:
            if not any(seen is clock for seen in self._clocks):
                self._clocks.append(clock)
                self.tracked_after_setup.append(len(gc.get_objects()))

            def measured(*inner: Any) -> Any:
                self._in_slice = True
                start = perf_counter()
                try:
                    return fn(*inner)
                finally:
                    self.slice_s += perf_counter() - start
                    self._in_slice = False

            return time(clock, measured, *args)

        return timed

    def report(self) -> str:
        lines = [f"{'':10s} {'in measured slices':>34s}   {'elsewhere':>22s}",
                 f"{'generation':>10s} {'collections':>12s} {'pause_s':>9s} "
                 f"{'collected':>10s}   {'collections':>12s} {'pause_s':>9s}"]
        inside, outside = self.PLACES
        for generation in range(3):
            lines.append(
                f"{generation:>10d} {self.collections[inside][generation]:>12d} "
                f"{self.pause_s[inside][generation]:>9.3f} "
                f"{self.collected[inside][generation]:>10d}   "
                f"{self.collections[outside][generation]:>12d} "
                f"{self.pause_s[outside][generation]:>9.3f}")
        pause = sum(self.pause_s[inside])
        share = pause / self.slice_s if self.slice_s else 0.0
        lines.append(f"tracked objects as each slice clock starts: "
                     f"{', '.join(str(n) for n in self.tracked_after_setup)}")
        lines.append(f"measured slices {self.slice_s:.3f} s, collector "
                     f"{pause:.3f} s (share {share:.3f})")
        return "\n".join(lines)


def _load_bench() -> Any:
    """``bench/run.py`` as a module (it puts ``bench/`` and ``src/`` on
    the path itself)."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_census(workload: str, seed: int, seconds: float, quick: bool,
               threshold: Optional[int]) -> Census:
    """One in-process ``bench/run.py --workload`` run under the census."""
    bench = _load_bench()
    import harness
    from repro.sim import engine

    census = Census()
    original_time = harness.SliceClock.time
    original_threshold = engine.DRAIN_GC_THRESHOLD
    harness.SliceClock.time = census.wrap(original_time)
    if threshold is not None:
        engine.DRAIN_GC_THRESHOLD = threshold
    gc.callbacks.append(census.on_gc)
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    if quick:
        argv.append("--quick")
    try:
        with tempfile.TemporaryDirectory() as out, \
                contextlib.redirect_stdout(io.StringIO()):
            status = bench.main(argv + ["--out", out])
    finally:
        gc.callbacks.remove(census.on_gc)
        harness.SliceClock.time = original_time
        engine.DRAIN_GC_THRESHOLD = original_threshold
    if status != 0:
        raise SystemExit(f"bench/run.py --workload {workload} exited {status}")
    return census


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="publish_storm")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measured seconds that buy repetitions "
                             "(default 0: the benchmark's minimum, two)")
    parser.add_argument("--quick", action="store_true", help="bench/'s tiny specs")
    parser.add_argument("--threshold", type=int, default=None,
                        help="DRAIN_GC_THRESHOLD for this run (default: the constant)")
    args = parser.parse_args(argv)
    census = run_census(args.workload, args.seed, args.seconds, args.quick,
                        args.threshold)
    from repro.sim.engine import DRAIN_GC_THRESHOLD

    threshold = DRAIN_GC_THRESHOLD if args.threshold is None else args.threshold
    print(f"gc census: {args.workload}, seed {args.seed}, drain threshold "
          f"{threshold}")
    print(census.report())
    return 0


if __name__ == "__main__":
    sys.exit(main())
