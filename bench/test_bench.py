"""Smoke test of the benchmark itself on the ``--quick`` profile.

Outside the tier-1 ``testpaths``; run it with
``python -m pytest bench/test_bench.py -q`` (about 20 s).
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=None):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *map(str, args)],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.fixture(scope="module")
def quick_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-out")
    done = _run("--quick", "--out", out)
    assert done.returncode == 0, done.stdout + done.stderr
    return out, json.loads((out / "result-2017.json").read_text(encoding="utf-8"))


def test_every_declared_metric_is_reported(quick_result):
    _, result = quick_result
    assert list(result["workloads"]) == [w["name"] for w in CONTRACT["workloads"]]
    for workload, entry in result["workloads"].items():
        for key in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in CONTRACT[key]}
            assert set(entry[key]) == set(declared), (workload, key)
            for name, metric in entry[key].items():
                assert math.isfinite(metric["value"]), (workload, name)
                assert metric["unit"] == declared[name] != "", (workload, name)
        for name, metric in entry["end_to_end"].items():
            assert metric["value"] > 0, (workload, name)
        assert entry["failed"] == 0 and entry["attempted"] >= 1
        assert entry["meta"]["reps"] >= 2
        for field in ("git_sha", "python", "nproc", "seed", "slices", "calibration_chunk_s"):
            assert field in entry["meta"], field


def test_traced_pass_is_behaviour_neutral_and_accounts_for_its_wall(quick_result):
    out, result = quick_result
    for workload, entry in result["workloads"].items():
        # run.py fails the run when the traced signature differs; the
        # traced document carrying the untraced signature proves it ran.
        traced = json.loads((out / f"{workload}-trace1.json").read_text(encoding="utf-8"))
        assert traced["correct"] and traced["signature"] == entry["signature"]
        shares = [m["value"] for name, m in entry["per_layer"].items()
                  if name.endswith("_share")]
        assert sum(shares) == pytest.approx(1.0, abs=0.02)
        assert entry["per_layer"]["bench.other_share"]["value"] < 0.02
        assert entry["per_layer"]["bench.trace_overhead_ratio"]["value"] > 0
        assert entry["per_layer"]["bench.trace_unwrapped"]["value"] == 0
        assert (out / f"spans-{workload}.jsonl").stat().st_size > 0


def test_compare_of_a_file_with_itself_is_all_ok(quick_result):
    out, _ = quick_result
    path = out / "result-2017.json"
    done = _run("--compare", path, path)
    assert done.returncode == 0, done.stdout
    assert "worse" not in done.stdout


def test_driver_line_has_exactly_the_contract_keys():
    done = _run("--workload", "market", "--seed", 5, "--seconds", 0, "--trace", 0, "--quick")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}


def test_exits_non_zero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, there is no
    ``src/`` to measure: no result line, non-zero exit."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "market", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert "correct" not in done.stdout
