"""Tests for ASCII plotting, query plans, the CLI, and tools/."""

import gc
import importlib.util
import io
import json
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

from benchmarks.conftest import ascii_cdf
from repro.core.plane import RBay, RBayConfig
from repro.query.plan import plan_query
from repro.query.sql import parse_query

REPO = Path(__file__).resolve().parent.parent


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ascii_bars = load_module(
    "churn_aware_selection",
    REPO / "examples" / "churn_aware_selection.py").ascii_bars


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
        assert "counter" in out and "query.plan.direct" in out

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


checker = load_module("check_coverage", REPO / "tools" / "check_coverage.py")


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


api_checker = load_module("check_api", REPO / "tools" / "check_api.py")


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

    def test_growth_report_names_only_unexplained_growth(self, tmp_path):
        root = tmp_path / "repro"
        (root / "sub").mkdir(parents=True)
        (root / "same.py").write_text("A = 1\n")
        (root / "sub" / "grown.py").write_text("A = 1\nB = 2\nC = 3\n")
        (root / "explained.py").write_text("A = 1\nB = 2\n")
        (root / "new.py").write_text("A = 1\n")
        baseline = tmp_path / "lines.json"
        baseline.write_text(json.dumps({"changes_lines": 1, "modules": {
            "repro/same.py": 1, "repro/sub/grown.py": 2,
            "repro/explained.py": 1, "repro/gone.py": 9}}))
        changes = tmp_path / "CHANGES.md"
        # The first line predates the baseline: its mention explains nothing.
        changes.write_text("- `src/repro/sub/grown.py` grew: an old reason.\n"
                           "- `src/repro/explained.py` grew: a reason.\n")
        assert api_checker.grown_modules(root, baseline, changes) == [
            ("repro/new.py", 0, 1), ("repro/sub/grown.py", 2, 3)]

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

    def test_telemetry_import_lint(self, tmp_path):
        """Check 9: outside ``obs/`` a module takes the plane's
        ``Observability``; the shared ``NULL_RECORDER`` is the one allowed
        import.  These three imports are the ones the lint found in the
        tree before components took ``obs=``."""
        (tmp_path / "obs").mkdir()
        (tmp_path / "obs" / "spans.py").write_text(
            "from repro.obs.metrics import MetricsRegistry\n")
        for module in ("faults", "query", "scribe", "pastry"):
            (tmp_path / module).mkdir()
        (tmp_path / "faults" / "injector.py").write_text(
            "from repro.obs.metrics import MetricsRegistry\n"
            "from repro.obs.spans import NULL_RECORDER\n")
        (tmp_path / "query" / "admission.py").write_text(
            "from repro.obs import Observability\n"
            "def f():\n"
            "    from repro.obs.metrics import MetricsRegistry\n")
        (tmp_path / "scribe" / "scribe.py").write_text(
            "from repro.obs.spans import NullRecorder, SpanRecorder\n")
        (tmp_path / "pastry" / "node.py").write_text(
            "from repro.obs.spans import NULL_RECORDER\n")
        assert api_checker.telemetry_imports(tmp_path) == [
            "faults/injector.py:1: MetricsRegistry",
            "query/admission.py:3: MetricsRegistry",
            "scribe/scribe.py:1: NullRecorder",
            "scribe/scribe.py:1: SpanRecorder"]
        assert api_checker.telemetry_imports() == []

    def test_liveness_seam_lint(self, tmp_path):
        """Check 10: outside the transport and the checker, only
        ``PastryNode.believes_alive`` and the ``Overlay`` oracle queries
        call ``has_host``.  The flagged call is the one the lint found in
        the tree when it was written (an uncalled gateway-failover
        helper)."""
        for package in ("pastry", "transport", "check"):
            (tmp_path / package).mkdir()
        (tmp_path / "pastry" / "node.py").write_text(
            "class PastryNode:\n"
            "    def believes_alive(self, address):\n"
            "        return self.network.has_host(address)\n")
        (tmp_path / "pastry" / "overlay.py").write_text(
            "class Overlay:\n"
            "    def live_nodes(self):\n"
            "        return [n for n in self.nodes if self.network.has_host(n)]\n"
            "    def others(self):\n"
            "        return self.network.has_host(1)\n")
        (tmp_path / "pastry" / "isolation.py").write_text(
            "class IsolationManager:\n"
            "    def live_gateway(self, site_index, network):\n"
            "        for ref in self.gateways.get(site_index, []):\n"
            "            if network.has_host(ref.address):\n"
            "                return ref\n")
        (tmp_path / "transport" / "base.py").write_text(
            "def f(t):\n    return t.has_host(1)\n")
        (tmp_path / "check" / "invariants.py").write_text(
            "def f(net):\n    return net.has_host(1)\n")
        assert api_checker.liveness_queries(tmp_path) == [
            "pastry/isolation.py:4", "pastry/overlay.py:5"]
        assert api_checker.liveness_queries() == []

    def test_liveness_epoch_lint(self, tmp_path):
        """Check 10 also confines reads of the transport's ``host_epoch``
        to the seam: ``PastryNode.liveness_epoch`` may read it, a stray
        stamp that reads it past the seam is flagged."""
        for package in ("pastry", "scribe", "transport"):
            (tmp_path / package).mkdir()
        (tmp_path / "pastry" / "node.py").write_text(
            "class PastryNode:\n"
            "    def liveness_epoch(self):\n"
            "        return self.network.host_epoch\n"
            "    def _ingest_stamp(self):\n"
            "        return self.leaf_set.version + self.network.host_epoch\n")
        (tmp_path / "scribe" / "scribe.py").write_text(
            "def stamp(node):\n    return node.liveness_epoch()\n"
            "def stray(node):\n    return node.network.host_epoch\n")
        (tmp_path / "transport" / "base.py").write_text(
            "class Transport:\n"
            "    def attach(self, host):\n"
            "        self.host_epoch += 1\n"
            "        return self.host_epoch\n")
        assert api_checker.liveness_queries(tmp_path) == [
            "pastry/node.py:5", "scribe/scribe.py:4"]

    def test_unset_parameter_lint(self, tmp_path):
        """Check 11: a defaulted parameter that no call site passes — by
        keyword, by position, or through ``*`` / ``**`` — is flagged; a
        function nobody calls is not (there is no call to judge by)."""
        src, calls = tmp_path / "src", tmp_path / "calls"
        src.mkdir()
        calls.mkdir()
        (src / "mod.py").write_text(
            "class Box:\n"
            "    def __init__(self, a, b=1, c=2, *, d=3):\n"
            "        pass\n"
            "    def put(self, x, y=0):\n"
            "        pass\n"
            "    @staticmethod\n"
            "    def make(x=0):\n"
            "        pass\n"
            "def helper(p=1, q=2):\n"
            "    pass\n"
            "def spread(u=1):\n"
            "    pass\n"
            "def loner(z=1):\n"
            "    pass\n")
        (calls / "use.py").write_text(
            "Box(1, 2)\n"
            "Box(0, c=5)\n"
            "box.put(1)\n"
            "Box.make(5)\n"
            "helper(*args)\n"
            "spread(**opts)\n")
        assert api_checker.unset_parameters(src, (src, calls)) == [
            "mod.py:2: Box(d)", "mod.py:4: Box.put(y)"]

    def test_unset_parameter_lint_on_this_tree(self):
        """Only the allow-listed parameters and config fields, each kept
        for a stated reason."""
        found = [entry.split(": ", 1)[1]
                 for entry in (api_checker.unset_parameters()
                               + api_checker.unset_fields())]
        assert sorted(found) == sorted(api_checker.UNSET_ALLOWED)
        assert all(api_checker.UNSET_ALLOWED.values())

    def test_unset_field_lint(self, tmp_path):
        """Check 11 on dataclass fields: a defaulted field is set by a call
        (keyword, position, a subclass's call, ``cls(...)``), by a ``**``
        whose keys it can resolve (a ``dict`` bound in the function, its
        ``update``, the function's own ``**kwargs`` read off its call
        sites), by ``dataclasses.replace`` or by an assignment; an
        unresolvable ``**`` sets every field.  A mutated record is not
        listed; a ``self.<field>`` assignment in an unrelated class does
        not count; factory fields, class constants and classes nobody
        constructs are not judged."""
        src, calls = tmp_path / "src", tmp_path / "calls"
        src.mkdir()
        calls.mkdir()
        (src / "mod.py").write_text(
            "from dataclasses import dataclass, field\n"
            "from typing import ClassVar\n"
            "@dataclass\n"
            "class Spec:\n"
            "    a: int\n"
            "    b: int = 1\n"
            "    c: int = 2\n"
            "    d: int = 3\n"
            "    e: list = field(default_factory=list)\n"
            "    K: ClassVar[int] = 9\n"
            "@dataclass\n"
            "class Base:\n"
            "    p: int = 0\n"
            "    q: int = 0\n"
            "    r: int = 0\n"
            "    @classmethod\n"
            "    def make(cls):\n"
            "        return cls(q=1)\n"
            "@dataclass\n"
            "class Child(Base):\n"
            "    s: int = 0\n"
            "@dataclass\n"
            "class Record:\n"
            "    done: bool = False\n"
            "    status: str = 'ok'\n"
            "    note: str = ''\n"
            "    def finish(self):\n"
            "        self.note = 'x'\n"
            "class Unrelated:\n"
            "    def __init__(self):\n"
            "        self.status = 'x'\n"
            "@dataclass\n"
            "class Spread:\n"
            "    u: int = 0\n"
            "    v: int = 0\n"
            "    w: int = 0\n"
            "    x: int = 0\n"
            "    y: int = 0\n"
            "    z: int = 0\n"
            "@dataclass\n"
            "class Opaque:\n"
            "    o: int = 0\n"
            "@dataclass(frozen=True)\n"
            "class Replaced:\n"
            "    m: int = 0\n"
            "@dataclass\n"
            "class Lonely:\n"
            "    lone: int = 0\n")
        (calls / "use.py").write_text(
            "from dataclasses import replace\n"
            "Spec(0, 5)\n"
            "Spec(a=0, c=1)\n"
            "Child(p=1)\n"
            "def build(**kwargs):\n"
            "    cfg = dict(u=1)\n"
            "    cfg.update(w=2)\n"
            "    return Spread(**cfg, **kwargs)\n"
            "def build_plane(**overrides):\n"
            "    cfg = {'v': 1}\n"
            "    cfg.update(overrides)\n"
            "    return Spread(**cfg)\n"
            "build(x=1)\n"
            "build_plane(y=2)\n"
            "def opaque(options):\n"
            "    return Opaque(**options)\n"
            "record = Record()\n"
            "record.done = True\n"
            "replace(Replaced(), m=1)\n")
        assert api_checker.unset_fields(src, (src, calls)) == [
            "mod.py:8: Spec.d", "mod.py:15: Base.r", "mod.py:21: Child.s",
            "mod.py:25: Record.status", "mod.py:39: Spread.z"]

    def test_unset_field_lint_resolves_same_named_classes(self, tmp_path):
        """Two dataclasses named ``Spec``: the judged one in ``pkg.a`` and a
        benchmark's own.  A constructor or ``replace`` target counts for
        the class its module's imports and definitions name (through a
        package's re-export); a ``replace`` of an opaque value counts only
        in a module that names the class.  Only ``pkg.a.Spec.g`` is set."""
        pkg, calls = tmp_path / "src" / "pkg", tmp_path / "calls"
        pkg.mkdir(parents=True)
        calls.mkdir()
        (pkg / "__init__.py").write_text("from .a import Spec\n")
        (pkg / "a.py").write_text(
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Spec:\n"
            "    f: int = 0\n"
            "    g: int = 0\n"
            "    h: int = 0\n"
            "    k: int = 0\n")
        (calls / "bench.py").write_text(
            "from dataclasses import dataclass, replace\n"
            "@dataclass\n"
            "class Spec:\n"
            "    f: int = 0\n"
            "    h: int = 0\n"
            "    k: int = 0\n"
            "Spec(f=1)\n"
            "replace(Spec(), h=2)\n"
            "def shrink(spec):\n"
            "    return replace(spec, k=3)\n")
        (calls / "run.py").write_text(
            "import bench as b\n"
            "b.Spec(f=1)\n")
        (calls / "use.py").write_text(
            "from pkg import Spec\n"
            "Spec(g=1)\n")
        assert api_checker.unset_fields(pkg, (tmp_path / "src", calls)) == [
            "a.py:4: Spec.f", "a.py:6: Spec.h", "a.py:7: Spec.k"]

    def test_unset_field_lint_on_the_tree_it_was_written_for(self, tmp_path):
        """On the commit before the config fields were folded in, the
        census lists these 27: the kept deployment address and the 26 that
        became constants."""
        parent = "351c3e7566925c53c61b45726f74e6dae07391d6"
        if subprocess.run(["git", "-C", str(REPO), "cat-file", "-e",
                           f"{parent}^{{commit}}"],
                          capture_output=True).returncode != 0:
            pytest.skip("the commit is not in this checkout's history")
        archive = subprocess.run(["git", "-C", str(REPO), "archive", parent],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp_path, filter="data")
        found = api_checker.unset_fields(
            tmp_path / "src" / "repro",
            tuple(tmp_path / root for root in api_checker.CALL_ROOTS))
        assert [entry.split(": ", 1)[1] for entry in found] == [
            "RBayConfig.instruction_limit", "RBayConfig.live_bind_host",
            "WorkloadSpec.sigma_fraction",
            "MarketSpec.user_zipf_s", "MarketSpec.demand_max",
            "MarketSpec.demand_alpha", "MarketSpec.request_budget",
            "MarketSpec.min_credit", "MarketSpec.overask",
            "MarketSpec.initial_instances", "MarketSpec.initial_price",
            "MarketSpec.lease_ms", "MarketSpec.hold_ms",
            "MarketSpec.warmup_ms", "MarketSpec.drain_ms",
            "MarketSpec.query_window",
            "ScaleSpec.warmup_ms", "ScaleSpec.publish_interval_ms",
            "ScaleSpec.publish_aggregates", "ScaleSpec.query_k",
            "ScaleSpec.query_span", "ScaleSpec.agg_flush_ms",
            "ScaleSpec.drain_ms",
            "SkewedSpec.attribute", "SkewedSpec.lo", "SkewedSpec.hi",
            "SkewedSpec.zipf_s"]

    def test_unset_parameter_lint_on_the_tree_it_was_written_for(self, tmp_path):
        """On the commit before the constants were folded in, the lint
        lists these 40: the 4 kept ones and 36 that became constants."""
        parent = "8e02ad548cc0f06f85e6fdeebcc4d07eae52c43d"
        if subprocess.run(["git", "-C", str(REPO), "cat-file", "-e",
                           f"{parent}^{{commit}}"],
                          capture_output=True).returncode != 0:
            pytest.skip("the commit is not in this checkout's history")
        archive = subprocess.run(["git", "-C", str(REPO), "archive", parent],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp_path, filter="data")
        found = api_checker.unset_parameters(
            tmp_path / "src" / "repro",
            tuple(tmp_path / root for root in api_checker.CALL_ROOTS))
        assert [entry.split(": ", 1)[1] for entry in found] == [
            "ActiveAttribute(sandbox)", "ActiveAttribute(rng)",
            "AARuntime(rng)", "LuetteTable(initial)",
            "GangliaClient.query(timeout)", "Sanitizer(grace_ms)",
            "SiteAdmin(name)", "SiteAdmin.post_resource(handler_source)",
            "SiteAdmin.hide_resource(tree)", "Customer.request(timeout)",
            "SyntheticMonitor(interval_ms)",
            "SyntheticMonitor.track_many(attribute)",
            "RBayNode(leaf_set_size)", "password_policy(ip)",
            "ChurnPredictor(uptime_weight)",
            "ChurnPredictor(flap_half_rate_per_hour)",
            "ChurnPredictor(lease_weight)", "CostAwareCustomer.buy(timeout)",
            "StabilityAwareCustomer.query_stable(payload)",
            "StabilityAwareCustomer.query_stable(timeout)",
            "TableIILatencyModel(rtt_ms)", "to_json(indent)",
            "PastryNode.closest_neighbors(exclude)",
            "Overlay(leaf_set_size)", "Overlay.create_node(node_id)",
            "_QueryContext(site_timeout_ms)", "_QueryContext(probe_timeout_ms)",
            "_QueryContext(retry_slot_ms)", "_QueryContext(bucket_index)",
            "ScribeApplication(functions)", "ScribeApplication(creator)",
            "ScribeApplication._adopt_joiner(origin)",
            "run_reference_workload(time_scale)",
            "run_reference_workload(sanitize)",
            "run_reference_workload(wire_check)",
            "validate_live_against_sim(seed)", "wait_for_peers(poll_s)",
            "run_serve(dress)", "run_serve(out)",
            "QueryWorkload.make(instance_type)"]


class TestPairs:
    """``tools/pairs.py``: the claim statistics and the exact-metric gate."""

    @pytest.fixture
    def pairs(self, monkeypatch):
        monkeypatch.syspath_prepend(str(REPO / "tools"))
        return load_module("pairs", REPO / "tools" / "pairs.py")

    @staticmethod
    def _pair(metric, parent, change):
        return {side: {"metrics": {metric: {"value": value}}}
                for side, value in (("parent", parent), ("change", change))}

    def test_claim_statistics(self, pairs):
        runs = [self._pair("ops_per_s", 100 + i, 120 + i) for i in range(10)]
        runs[0] = self._pair("ops_per_s", 100, 100)  # a tie: no win
        summary = pairs.summarize(runs, "ops_per_s")
        assert (summary["wins"], summary["losses"]) == (9, 0)
        assert summary["parent"] == [102.25, 104.5, 106.75]
        assert summary["parent_quartile_distance"] == 4.5
        assert summary["gap"] == 20.0 and summary["holds"]

    def test_lower_is_better_reads_benchmark_json(self, pairs):
        runs = [self._pair("setup_s", 1.0, 0.5 if i % 2 else 1.5)
                for i in range(10)]
        summary = pairs.summarize(runs, "setup_s")
        assert (summary["wins"], summary["losses"]) == (5, 5)
        assert not summary["holds"]

    def test_an_exact_metric_that_moves_fails(self, pairs):
        def run(side, msgs):
            return {"side": side, "correct": True, "failed": 0,
                    "attempted": 4, "metrics": {"msgs_per_op": {"value": msgs}}}
        assert pairs._exact_errors([run("parent", 2.0), run("change", 2.0)]) == []
        assert pairs._exact_errors([run("parent", 2.0), run("change", 2.5)]) == [
            "run 1 (change): msgs_per_op 2.5 != 2.0"]

    #: As BENCHMARK.json declares them.
    OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
    SETUP = {"name": "setup_s", "better": "lower", "bound": 0.25}

    def test_verdict_ok_within_the_bound(self, pairs):
        # 20 % slower, 20 % longer set-up: no worse than the 25 % bound.
        runs = [self._pair("ops_per_s", 100 + i, 80 + i) for i in range(10)]
        assert pairs.verdict(runs, self.OPS)["verdict"] == "ok"
        runs = [self._pair("setup_s", 1.0 + i / 100, 1.2 + i / 100)
                for i in range(10)]
        assert pairs.verdict(runs, self.SETUP)["verdict"] == "ok"

    def test_verdict_worse_beyond_the_bound(self, pairs):
        runs = [self._pair("ops_per_s", 100 + i, 70 + i) for i in range(10)]
        got = pairs.verdict(runs, self.OPS)
        assert got["verdict"] == "worse"
        assert got["worse_by"] == pytest.approx(0.287, abs=1e-3)
        runs = [self._pair("setup_s", 1.0, 1.3) for i in range(10)]
        assert pairs.verdict(runs, self.SETUP)["verdict"] == "worse"

    def test_verdict_unresolved_when_the_parent_spreads_past_the_bound(self, pairs):
        # The parent's quartiles run 60 - 140 (spread 80 % of its median).
        parent = [40, 60, 60, 60, 100, 100, 140, 140, 140, 160]
        change = [value * 0.9 for value in parent]
        runs = [self._pair("ops_per_s", p, c) for p, c in zip(parent, change)]
        assert pairs.verdict(runs, self.OPS)["verdict"] == "unresolved"
        # Even a median 40 % lower is unresolved on such a parent.
        runs = [self._pair("ops_per_s", p, p * 0.6) for p in parent]
        assert pairs.verdict(runs, self.OPS)["verdict"] == "unresolved"
        # Unless every change run beats every parent run.
        runs = [self._pair("ops_per_s", p, 200 + p) for p in parent]
        assert pairs.verdict(runs, self.OPS)["verdict"] == "ok"

    def test_a_worse_verdict_fails_the_run(self, pairs, monkeypatch, capsys):
        def run(tree, args):
            # The change (this tree) runs 40 % slower; all else is equal.
            metrics = {entry["name"]: {"value": 1.0}
                       for entry in pairs._declared()["end_to_end"]}
            metrics["ops_per_s"] = {"value": 60.0 if tree.name == "change" else 100.0}
            return {"correct": True, "failed": 0, "attempted": 4,
                    "metrics": metrics}
        monkeypatch.setattr(pairs, "_export", lambda rev, dest: dest / "src")
        monkeypatch.setattr(pairs.shutil, "copytree", lambda *a, **k: None)
        monkeypatch.setattr(pairs.shutil, "copy", lambda *a, **k: None)
        monkeypatch.setattr(pairs, "_run", run)
        assert pairs.main(["--against", "HEAD", "--workload", "market",
                           "--pairs", "2"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == ("pairs: FAIL: ops_per_s is worse than the "
                           "parent's beyond its bound")
        assert [line.split()[1:3] for line in out if line.startswith("verdict")] == [
            [entry["name"], "worse" if entry["name"] == "ops_per_s" else "ok"]
            for entry in pairs._declared()["end_to_end"]]


    def test_both_sides_run_from_trees_built_alike(self, pairs, monkeypatch):
        """Neither side runs from this checkout: each is a temporary tree
        of a ``src/`` beside this tree's ``bench/`` and ``BENCHMARK.json``."""
        layouts = {}

        def run(tree, args):
            layouts.setdefault(tree, (
                tuple(sorted(path.name for path in tree.iterdir())),
                (tree / "bench" / "run.py").read_bytes()
                == (pairs.ROOT / "bench" / "run.py").read_bytes(),
                (tree / "src" / "repro" / "__init__.py").is_file()))
            return {"correct": True, "failed": 0, "attempted": 4,
                    "metrics": {entry["name"]: {"value": 1.0}
                                for entry in pairs._declared()["end_to_end"]}}

        def export(rev, into):  # the parent's source, without git
            pairs.shutil.copytree(pairs.ROOT / "src", into / "src")
            return into / "src"

        monkeypatch.setattr(pairs, "_export", export)
        monkeypatch.setattr(pairs, "_run", run)
        assert pairs.main(["--against", "HEAD", "--workload", "market",
                           "--pairs", "2"]) == 0
        assert sorted(tree.name for tree in layouts) == ["change", "parent"]
        assert not any(tree.is_relative_to(pairs.ROOT) for tree in layouts)
        assert set(layouts.values()) == {
            (("BENCHMARK.json", "bench", "src"), True, True)}


class TestGcCensus:
    """``tools/gc_census.py``: the census of one quick benchmark run."""

    def test_quick_census_books_collections_and_setup(self):
        out = subprocess.run(
            [sys.executable, str(REPO / "tools" / "gc_census.py"),
             "--workload", "publish_storm", "--quick", "--threshold", "700"],
            capture_output=True, text=True, check=True, timeout=300).stdout
        lines = out.splitlines()
        assert lines[0] == "gc census: publish_storm, seed 2017, drain threshold 700"
        rows = [line.split() for line in lines[3:6]]
        assert [row[0] for row in rows] == ["0", "1", "2"]
        # The tiny spec still allocates past a 700 threshold in its slices.
        assert int(rows[0][1]) > 0
        tracked = lines[6].split(": ")[1].split(", ")
        assert len(tracked) == 2 and all(int(n) > 0 for n in tracked)  # 2 reps
        assert lines[7].startswith("measured slices ")

    def test_census_books_only_what_runs_inside_a_slice(self, monkeypatch):
        monkeypatch.syspath_prepend(str(REPO / "tools"))
        census = load_module("gc_census", REPO / "tools" / "gc_census.py").Census()

        class Clock:
            def time(self, fn, *args):
                return fn(*args)

        timed = census.wrap(Clock.time)
        enabled = gc.isenabled()
        gc.disable()  # only the two explicit collections below
        gc.callbacks.append(census.on_gc)
        try:
            gc.collect()
            timed(Clock(), gc.collect, 1)
        finally:
            gc.callbacks.remove(census.on_gc)
            if enabled:
                gc.enable()
        assert census.collections == {"slices": [0, 1, 0], "elsewhere": [0, 0, 1]}
        assert len(census.tracked_after_setup) == 1


class TestMsgFloor:
    """``tools/msg_floor.py``: the sim's send→deliver ping-pong, and the
    live arm (loopback TCP ping-pong, codec over the golden corpus)."""

    @pytest.fixture
    def floor(self):
        return load_module("msg_floor", REPO / "tools" / "msg_floor.py")

    def test_every_arm_delivers_its_messages(self, floor):
        results = floor.measure(messages=200, runs=2)
        assert len(results) == 4
        assert {arm.split()[1] for arm in results} == {"on", "off"}
        assert {arm.split()[-1] for arm in results} == {"supplied", "walked"}
        for values in results.values():
            assert len(values) == 2 and all(v > 0 for v in values)

    def test_a_ping_pong_is_one_send_and_one_delivery_per_message(
            self, floor, monkeypatch):
        from repro.net.network import Network

        counts = []
        deliver = Network._deliver_batch

        def counting(net, key):
            counts.append(len(net._pending_batches[key]))
            deliver(net, key)

        monkeypatch.setattr(Network, "_deliver_batch", counting)
        floor.ping_pong_us(50, jitter=True, supplied=False)
        assert counts == [1] * 50

    def test_cli_prints_one_row_per_arm(self, floor, capsys):
        assert floor.main(["--messages", "100", "--runs", "1",
                           "--src", str(REPO / "src")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[0] == "arm" and len(lines) == 12
        assert [line.rsplit(None, 3)[0] for line in lines[5:]] == [
            "live ping-pong", "encode golden", "decode golden",
            "quiet tick", "quiet sim second",
            "bootstrap 32x32", "bootstrap 1x4096"]

    def test_the_bootstrap_arm_times_one_bootstrap_per_shape(self, floor,
                                                             monkeypatch):
        from repro.pastry.overlay import Overlay

        built = []
        bootstrap = Overlay.bootstrap

        def counting(overlay):
            built.append((len(overlay.registry.sites), len(overlay.nodes),
                          overlay.isolation))
            bootstrap(overlay)

        monkeypatch.setattr(Overlay, "bootstrap", counting)
        monkeypatch.setattr(floor, "BOOTSTRAP_SHAPES", {
            "bootstrap 4x8": (4, 8), "bootstrap 1x64": (1, 64)})
        results = floor.measure_bootstrap(runs=2)
        assert list(results) == ["bootstrap 4x8", "bootstrap 1x64"]
        for values in results.values():
            assert len(values) == 2 and all(v > 0 for v in values)
        assert built == [(4, 32, True), (1, 64, False)] * 2

    def test_the_quiet_arm_times_every_tick(self, floor):
        """Per tick and per simulated second of one plane: their ratio is
        the ticks per simulated second, one per node per 2-s interval: 100
        on the 200-node plane."""
        results = floor.measure_quiet(sim_seconds=2, runs=2)
        assert list(results) == ["quiet tick", "quiet sim second"]
        for tick, second in zip(*results.values()):
            assert tick > 0 and 100 * 0.9 <= second / tick <= 100 * 1.1

    def test_the_quiet_arm_asks_no_query(self, floor, monkeypatch):
        from repro.core.plane import RBay

        asked = []
        monkeypatch.setattr(RBay, "submit", lambda *a, **k: asked.append(a))
        monkeypatch.setattr(RBay, "query", lambda *a, **k: asked.append(a))
        floor.quiet_plane_us(2)
        assert asked == []

    def test_the_live_arm_times_every_row(self, floor):
        results = floor.measure_live(messages=40, runs=2)
        assert list(results) == ["live ping-pong", "encode golden",
                                 "decode golden"]
        for values in results.values():
            assert len(values) == 2 and all(v > 0 for v in values)

    def test_a_live_ping_pong_is_one_frame_per_message(self, floor,
                                                       monkeypatch):
        from repro.transport.asyncio_transport import AsyncioTransport

        frames = []
        deliver = AsyncioTransport._deliver_body

        def counting(net, address, body):
            frames.append(address)
            deliver(net, address, body)

        monkeypatch.setattr(AsyncioTransport, "_deliver_body", counting)
        assert floor.live_ping_pong_us(30) > 0
        # The warm-up round trip, then the run: a → b, b → a, ...
        assert frames == [1, 0] * 16
