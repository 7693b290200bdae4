"""Tests for ASCII plotting, query plans, the CLI, and tools/."""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.metrics.ascii_plot import ascii_bars, ascii_cdf
from repro.query.plan import plan_query
from repro.query.sql import parse_query


class TestAsciiPlots:
    def test_cdf_renders_markers_and_legend(self):
        text = ascii_cdf({"local": [1, 2, 3], "remote": [10, 20, 30]})
        assert "*=local" in text and "o=remote" in text
        assert "|" in text

    def test_cdf_rejects_empty(self):
        with pytest.raises(ValueError):
            ascii_cdf({})
        with pytest.raises(ValueError):
            ascii_cdf({"x": []})

    def test_cdf_single_value_series(self):
        text = ascii_cdf({"x": [5.0]})
        assert "5" in text

    def test_bars_scale_to_peak(self):
        text = ascii_bars([("a", 10.0), ("b", 5.0)], width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_bars_reject_empty(self):
        with pytest.raises(ValueError):
            ascii_bars([])


class TestQueryPlan:
    @pytest.fixture(scope="class")
    def plane(self):
        plane = RBay(RBayConfig(seed=91, nodes_per_site=5, jitter=False)).build()
        plane.sim.run()
        return plane

    def test_plan_targets_requested_sites(self, plane):
        query = parse_query("SELECT 1 FROM Virginia, Tokyo WHERE GPU = true")
        plan = plan_query(query, plane.context)
        assert plan.target_sites == ["Virginia", "Tokyo"]

    def test_plan_star_targets_all_sites(self, plane):
        query = parse_query("SELECT 1 FROM * WHERE GPU = true")
        plan = plan_query(query, plane.context)
        assert len(plan.target_sites) == 8

    def test_probe_topics_are_site_scoped(self, plane):
        query = parse_query("SELECT 1 FROM Tokyo WHERE GPU = true")
        plan = plan_query(query, plane.context)
        assert plan.probes("Tokyo") == ["Tokyo/GPU"]

    def test_hierarchy_expansion_marked(self, plane):
        plane.hierarchy.link("CPU/Intel", "CPU")
        query = parse_query("SELECT 1 FROM Tokyo WHERE CPU = true")
        plan = plan_query(query, plane.context)
        assert plan.conjunctions[0].routes[0].reason == "hierarchy-expanded"
        assert set(plan.probes("Tokyo")) == {"Tokyo/CPU", "Tokyo/CPU/Intel"}
        plane.hierarchy.unlink("CPU/Intel")

    def test_explain_mentions_all_steps(self, plane):
        query = parse_query(
            "SELECT 5 FROM * WHERE GPU = true AND vcpu >= 4 GROUPBY vcpu DESC")
        text = plan_query(query, plane.context).explain()
        assert "fan-out: 8" in text
        assert "step 1-2" in text and "step 3" in text
        assert "step 4" in text and "step 5" in text
        assert "commit best 5 by vcpu DESC" in text

    def test_total_probes(self, plane):
        query = parse_query("SELECT 1 FROM Virginia, Tokyo WHERE a = 1 AND b = 2")
        plan = plan_query(query, plane.context)
        # 2 predicates x 2 sites
        assert sum(len(plan.probes(s)) for s in plan.target_sites) == 4


class TestCLI:
    def run_cli(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr().out

    def test_describe(self, capsys):
        code, out = self.run_cli(
            ["describe", "--nodes", "4", "--no-jitter"], capsys)
        assert code == 0
        assert "8 sites" in out and "Virginia" in out

    def test_query_satisfied(self, capsys):
        # The utilization-threshold tree exists federation-wide, so some
        # node is always below 10% with 48 nodes and the fixed seed.
        code, out = self.run_cli(
            ["query", "SELECT 1 FROM * WHERE CPU_utilization < 10%;",
             "--nodes", "6", "--no-jitter"], capsys)
        assert code == 0
        assert "satisfied: True" in out

    def test_query_unsatisfied_exit_code(self, capsys):
        code, out = self.run_cli(
            ["query", "SELECT 1 FROM * WHERE no_such = 'thing';",
             "--nodes", "4", "--no-jitter"], capsys)
        assert code == 1

    def test_query_show_counters(self, capsys):
        code, out = self.run_cli(
            ["query", "SELECT 1 FROM * WHERE CPU_utilization < 10%;",
             "--nodes", "6", "--no-jitter", "--show-counters"], capsys)
        assert code == 0
        assert "counter" in out and "scribe.acc_cache.miss" in out
        assert "query.plan.direct" in out

    def test_explain(self, capsys):
        code, out = self.run_cli(
            ["explain", "SELECT 2 FROM Tokyo WHERE GPU = true;",
             "--nodes", "4", "--no-jitter"], capsys)
        assert code == 0
        assert "QUERY" in out and "fan-out: 1" in out

    def test_latency_sweep(self, capsys):
        code, out = self.run_cli(
            ["latency", "--origins", "Virginia", "--queries", "2",
             "--nodes", "6", "--no-jitter"], capsys)
        assert code == 0
        assert "8-site" in out

    def test_latency_unknown_origin(self, capsys):
        code, _ = self.run_cli(
            ["latency", "--origins", "Atlantis", "--queries", "1",
             "--nodes", "4", "--no-jitter"], capsys)
        assert code == 2

    def test_query_group_by_prints_group_counts(self, capsys):
        code, out = self.run_cli(
            ["query", "SELECT * FROM * GROUP BY CPU_utilization;",
             "--buckets", "4", "--nodes", "4", "--no-jitter"], capsys)
        assert code == 0
        assert "group" in out and "count" in out
        assert "CPU_utilization[0,25)" in out

    def test_query_default_origin_is_the_planes_first_site(self, capsys):
        # Synthetic registries have no "Virginia".
        code, out = self.run_cli(
            ["query", "SELECT 1 FROM * WHERE CPU_utilization < 10%;",
             "--sites", "2", "--nodes", "6", "--no-jitter"], capsys)
        assert code == 0
        assert "Site000" in out

    @pytest.mark.parametrize("command", ["query", "trace"])
    def test_unknown_origin_names_the_valid_sites(self, command, capsys):
        from repro.cli import main

        code = main([command, "SELECT 1 FROM * WHERE CPU_utilization < 10%;",
                     "--sites", "2", "--nodes", "4", "--no-jitter",
                     "--origin", "Virginia"])
        assert code == 2
        assert "Site000, Site001" in capsys.readouterr().err


class TestCLILua:
    def run_cli(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_lua_chunk_runs(self, capsys):
        code, out, _ = self.run_cli(
            ["lua", "return 6 * 7"], capsys)
        assert code == 0 and "42" in out

    def test_lua_budget_enforced(self, capsys):
        code, _, err = self.run_cli(
            ["lua", "while true do end", "--budget", "500"], capsys)
        assert code == 1 and "budget" in err

    def test_lua_sandbox_violation_reported(self, capsys):
        code, _, err = self.run_cli(["lua", "return os.time()"], capsys)
        assert code == 1 and "excluded" in err

    def test_lua_syntax_error_reported(self, capsys):
        code, _, err = self.run_cli(["lua", "if if if"], capsys)
        assert code == 1


def load_coverage_checker():
    repo = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "check_coverage", repo / "tools" / "check_coverage.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = load_coverage_checker()


class TestCoverageChecker:
    def test_executable_lines_finds_nested_bodies(self, tmp_path):
        source = tmp_path / "mod.py"
        source.write_text(
            "def outer():\n"
            "    def inner():\n"
            "        return 1\n"
            "    return inner\n"
            "X = 5\n"
        )
        assert {1, 2, 3, 4, 5} <= checker.executable_lines(source)

    def test_comments_and_blanks_not_executable(self, tmp_path):
        source = tmp_path / "mod.py"
        source.write_text("# comment\n\nY = 1\n")
        lines = checker.executable_lines(source)
        assert 3 in lines and 1 not in lines and 2 not in lines

    def test_default_targets_exist_and_compile(self):
        for target in checker.DEFAULT_TARGETS:
            assert target.exists()
            assert checker.executable_lines(target)
        # A deleted test file must fail here, not only in `make coverage`.
        for test_file in checker.DEFAULT_TESTS:
            assert test_file.exists(), test_file

    def test_coverage_ratio(self):
        assert checker.coverage_ratio(set(), set()) == 1.0
        assert checker.coverage_ratio({1, 2}, {1, 2, 3, 4}) == 0.5
        # Hits outside the executable set are ignored, not counted.
        assert checker.coverage_ratio({1, 99}, {1, 2}) == 0.5

    def test_tracer_records_only_watched_files(self, tmp_path):
        source = tmp_path / "traced.py"
        source.write_text("def f():\n    return 2 + 2\n")
        spec = importlib.util.spec_from_file_location("traced_mod", source)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        hits = {str(source): set()}
        tracer = checker.make_tracer(hits)
        old = sys.gettrace()
        sys.settrace(tracer)
        try:
            assert module.f() == 4
        finally:
            sys.settrace(old)
        assert 2 in hits[str(source)]
        assert list(hits) == [str(source)]  # nothing foreign was added

    def test_report_rows(self, tmp_path):
        a, b = tmp_path / "a.py", tmp_path / "b.py"
        for f in (a, b):
            f.write_text("Z = 1\n")
        executable = {str(a): {1}, str(b): {1}}
        hits = {str(a): {1}, str(b): set()}
        rows = checker.report(hits, executable)
        assert [row[3] for row in rows] == [1.0, 0.0]
        assert rows[0][1] == 1 and rows[1][1] == 0


def load_api_checker():
    repo = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "check_api", repo / "tools" / "check_api.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


api_checker = load_api_checker()


class TestApiChecker:
    def test_public_surface_in_sync(self, capsys):
        assert api_checker.main() == 0
        assert "check_api: OK" in capsys.readouterr().out

    def test_docs_table_parser_reads_backticked_names(self):
        text = (f"intro\n{api_checker.DOCS_SECTION}\n\nblah\n"
                "| Name | What |\n|---|---|\n"
                "| `RBay` | facade |\n| `QueryResult` | result |\n\nafter\n")
        assert api_checker._docs_table_names(text) == ["RBay", "QueryResult"]

    def test_docs_table_parser_missing_section(self):
        assert api_checker._docs_table_names("no section here") is None

    def test_unused_import_lint(self, tmp_path):
        (tmp_path / "__init__.py").write_text("from os import path\n")
        (tmp_path / "mod.py").write_text(
            "from __future__ import annotations\n"
            "import os, sys\n"
            "from typing import TYPE_CHECKING, Dict, List, Optional\n"
            "if TYPE_CHECKING:\n"
            "    from decimal import Decimal\n"
            "    from fractions import Fraction\n"
            "__all__ = ['sys']\n"
            "def f(x: 'Optional[Decimal]') -> Dict:\n"
            "    import json\n"
            "    return {}\n")
        assert api_checker.unused_imports(tmp_path) == [
            "mod.py:2: os", "mod.py:3: List", "mod.py:6: Fraction"]
