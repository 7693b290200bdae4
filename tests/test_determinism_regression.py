"""Determinism regression: the core replays pinned signatures.

The hot-path rewrite (slotted messages, Event free-list, hop caches,
latency memoization, delivery coalescing) is only admissible because it
changes *wall time*, never *simulated history*.  This suite holds that
line: it re-runs the scale workload against signatures pinned in
``benchmarks/results/scale_signatures.json`` and fails on the first
byte that moves.

Two tiers:

* **small spec** (4x8 nodes, sub-second) — two seeds; runs in every
  tier-1 pass and catches nearly any ordering or RNG drift within
  seconds.
* **full spec** (the checked-in 1,024-node acceptance configuration) —
  two seeds; slower, but it is the exact artifact
  ``benchmarks/results/scale.json`` pins, so the acceptance numbers and
  this suite can never drift apart.  Set ``RBAY_SKIP_FULL_DETERMINISM=1``
  to keep only the small tier when iterating locally.

A third pin is a slice of ``tools/fingerprint.py``'s scenario matrix (one
fault-free, one faulted, one reply-loss and one rebalancing scenario),
replayed against
``benchmarks/results/fingerprints.json``; ``make fingerprint`` checks the
whole matrix, and ``python tools/fingerprint.py --against REV`` names the
first send or engine step where a drifted tree parts from REV.

Regenerating (after a *deliberate* semantic change): run this module as
a script — ``PYTHONPATH=src python -m tests.test_determinism_regression``
— and paste the printed matrix into the JSON, and re-pin the fingerprints
with ``python tools/fingerprint.py --write-pins``, explaining the change in
the commit message.
"""

import dataclasses
import importlib.util
import json
import os
from pathlib import Path

import pytest

from repro.workloads.scale import ScaleSpec, run_scale

PINS_PATH = (Path(__file__).resolve().parent.parent
             / "benchmarks" / "results" / "scale_signatures.json")
PINS = json.loads(PINS_PATH.read_text())

SEEDS = (2017, 4242)

SMALL_SPEC = ScaleSpec(sites=4, nodes_per_site=8, duration_ms=2_000.0,
                       queries=16, query_burst=8, query_window=4)


@pytest.mark.parametrize("seed", SEEDS)
def test_small_spec_signature_is_pinned(seed):
    metrics = run_scale(dataclasses.replace(SMALL_SPEC, seed=seed))
    want = PINS["small_spec"]["seeds"][str(seed)]
    assert metrics["signature"] == want, (
        f"small-spec seed={seed} signature drifted: simulated history "
        f"changed (got {metrics['signature'][:16]}..., "
        f"pinned {want[:16]}...)")


@pytest.mark.skipif(os.environ.get("RBAY_SKIP_FULL_DETERMINISM") == "1",
                    reason="full 1,024-node determinism matrix skipped "
                           "(RBAY_SKIP_FULL_DETERMINISM=1)")
@pytest.mark.parametrize("seed", SEEDS)
def test_full_spec_signature_is_pinned(seed):
    metrics = run_scale(ScaleSpec(seed=seed))
    want = PINS["full_spec"]["seeds"][str(seed)]
    assert metrics["signature"] == want, (
        f"1,024-node seed={seed} signature drifted: the core no longer "
        f"replays the pinned history (got "
        f"{metrics['signature'][:16]}..., pinned {want[:16]}...)")


def load_fingerprint_tool():
    spec = importlib.util.spec_from_file_location(
        "fingerprint", PINS_PATH.parents[2] / "tools" / "fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fingerprint = load_fingerprint_tool()

FINGERPRINT_SLICE = ("seed11-jitter-clean", "seed12-fixed-faults",
                     "seed12-jitter-replyloss",
                     "seed11-jitter-faults-rebalance")


def test_fingerprint_slice_is_pinned():
    got = fingerprint.fingerprints(fingerprint.ROOT / "src", FINGERPRINT_SLICE)
    pins = fingerprint.load_pins()
    for name in FINGERPRINT_SLICE:
        assert got[name] == pins[name], (
            f"fingerprint {name} drifted: simulated history changed; "
            f"python tools/fingerprint.py --against HEAD --scenario {name} "
            f"shows the first send or step that moved")


def test_first_divergence_names_the_first_differing_record():
    first = fingerprint.first_divergence
    assert first(["a", "b"], ["a", "b"]) is None
    assert first(list("abcdx"), list("abcdy")) == (4, "x", "y", ["b", "c", "d"])
    assert first(["a"], ["a", "b"]) == (1, None, "b", ["a"])


def _print_matrix() -> None:
    """Regeneration helper (see module docstring)."""
    for label, base in (("small_spec", SMALL_SPEC), ("full_spec", ScaleSpec())):
        print(f"{label}:")
        for seed in SEEDS:
            m = run_scale(dataclasses.replace(base, seed=seed))
            print(f'  "{seed}": "{m["signature"]}"'
                  f'  ({m["events_per_sec"]:,.0f} ev/s)')


if __name__ == "__main__":
    _print_matrix()
