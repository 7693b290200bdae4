"""Meta-tests: documentation and packaging hygiene.

The paper-reproduction deliverable includes "doc comments on every public
item"; these tests enforce it mechanically so it cannot rot.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro", "repro.sim", "repro.net", "repro.pastry", "repro.scribe",
    "repro.aa", "repro.query", "repro.core", "repro.baselines",
    "repro.workloads", "repro.metrics", "repro.ext", "repro.check",
]


def iter_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                yield importlib.import_module(f"{package_name}.{info.name}")


def public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports documented at their source
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


def test_every_module_has_a_docstring():
    missing = [m.__name__ for m in iter_modules() if not (m.__doc__ or "").strip()]
    assert not missing, f"undocumented modules: {missing}"


def test_every_public_class_and_function_has_a_docstring():
    missing = []
    for module in iter_modules():
        for name, obj in public_members(module):
            if not (obj.__doc__ or "").strip():
                missing.append(f"{module.__name__}.{name}")
    assert not missing, f"undocumented public items: {missing}"


def test_every_public_class_method_is_documented_or_trivial():
    """Public methods need docstrings unless they are dunder/inherited."""
    missing = []
    for module in iter_modules():
        for class_name, cls in public_members(module):
            if not inspect.isclass(cls):
                continue
            for method_name, method in vars(cls).items():
                if method_name.startswith("_"):
                    continue
                if not inspect.isfunction(method):
                    continue
                doc = (method.__doc__ or "").strip()
                if doc:
                    continue
                # Tolerate short delegations/accessors (≤ 6 statements):
                # their names are self-describing.
                try:
                    source_lines = inspect.getsource(method).splitlines()
                except OSError:
                    continue
                body = [l for l in source_lines if l.strip()
                        and not l.strip().startswith(("def ", "@", "#"))]
                if len(body) <= 6:
                    continue
                missing.append(f"{module.__name__}.{class_name}.{method_name}")
    assert not missing, f"undocumented public methods: {missing}"


def test_version_is_exposed():
    assert repro.__version__ == "1.0.0"


def test_repo_documents_exist():
    import pathlib

    root = pathlib.Path(repro.__file__).resolve().parents[2]
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE",
                 "docs/architecture.md", "docs/protocol.md", "docs/api.md"):
        assert (root / name).exists(), name


def test_protocol_doc_lists_exactly_the_registered_wire_kinds():
    """docs/protocol.md "Wire kinds" is the one list: it must equal the
    dispatch tables (kind, handler, and which kinds only a balancer adds)."""
    import pathlib
    import re

    from repro.scribe.rebalance import RebalanceConfig
    from tests.conftest import registered_wire_kinds

    base = registered_wire_kinds()
    everything = registered_wire_kinds(RebalanceConfig())
    assert set(base) < set(everything)
    expected = {
        kind: (handler.__qualname__, "" if kind in base else "rebalance")
        for kind, handler in everything.items()
    }
    root = pathlib.Path(repro.__file__).resolve().parents[2]
    text = (root / "docs" / "protocol.md").read_text(encoding="utf-8")
    section = text.split("## Wire kinds", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        match = re.fullmatch(r"`((?:route|direct)/\w+/\w+)`", cells[0])
        if match:
            assert match.group(1) not in documented, line
            documented[match.group(1)] = (cells[3].strip("`"), cells[4])
    assert documented == expected
