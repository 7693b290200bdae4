#!/usr/bin/env python3
"""Lint the frozen public API surface (run by ``make coverage`` and CI).

Fails (exit 1) when any of these drift apart:

* ``repro.__all__`` — the declared stable surface;
* the lazy-export map ``repro._EXPORTS`` backing it (PEP 562);
* the "Public API & stability" table in ``docs/architecture.md``;
* ``repro.query.__all__`` — the query package's exported helpers.

Also pins the stability contract itself: every public name must resolve
and carry a docstring, ``QueryOptions``/``QueryResult`` must stay frozen
dataclasses, and every ``RBayConfig`` field (the public configuration
knobs, including the sanitizer's) must be listed in ``docs/api.md``,
which must also state how many there are.

A deny-list keeps *retired* surfaces retired: names removed from
the public API (``QueryContext``, the ``execute(payload=/caller=/
timeout=)`` keyword shims) must not reappear in ``repro.__all__``, the
lazy-export map, the query package exports, or the docs.

Finally, no module under ``src/repro`` may import a name at module level
that it never uses (``__init__.py`` files re-export, so they are exempt).
"""

from __future__ import annotations

import ast
import dataclasses
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

DOCS = REPO / "docs" / "architecture.md"
DOCS_SECTION = "## 12. Public API & stability"

API_DOCS = REPO / "docs" / "api.md"
CONFIG_SECTION = "### `RBayConfig`"

#: Retired public names: must never reappear in the export surfaces.
DENY_EXPORTS = ("QueryContext",)

#: Retired spellings: must never reappear in the docs (the docs may of
#: course *mention* QueryOptions fields like ``payload=``; these patterns
#: target the removed entry points specifically).
DENY_DOC_PATTERNS = (
    r"`QueryContext`",
    r"execute\(payload=",
    r"execute\(caller=",
    r"execute\(timeout=",
)


def _fail(errors):
    for error in errors:
        print(f"check_api: FAIL: {error}")
    return 1


def _docs_table_names(text: str):
    """Backticked names from the first column of the section's table."""
    try:
        section = text.split(DOCS_SECTION, 1)[1]
    except IndexError:
        return None
    names = []
    for line in section.splitlines():
        match = re.match(r"\|\s*`([A-Za-z_][A-Za-z0-9_]*)`\s*\|", line)
        if match:
            names.append(match.group(1))
        elif names and not line.startswith("|"):
            break  # table ended
    return names


def _module_level(body):
    """Statements executed at import: the module body, through ``if`` /
    ``try`` blocks but not into function or class bodies."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.If, ast.Try)):
            for block in (stmt.body, stmt.orelse, getattr(stmt, "finalbody", []),
                          *(h.body for h in getattr(stmt, "handlers", []))):
                yield from _module_level(block)


def unused_imports(root: Path = REPO / "src" / "repro"):
    """``path:line: name`` (paths relative to ``root``) for every
    module-level import that the module never names — in code, in a string
    annotation, or in ``__all__``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for stmt in _module_level(tree.body):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = stmt.lineno
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                # A quoted annotation ("RBayNode") or an __all__ entry: a
                # string that is itself an expression names what it names.
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(n.id for n in ast.walk(quoted)
                            if isinstance(n, ast.Name))
        found.extend(f"{path.relative_to(root)}:{line}: {name}"
                     for name, line in sorted(imported.items(), key=lambda i: i[1])
                     if name not in used)
    return found


def main() -> int:
    import repro
    import repro.query as query_pkg

    errors = []

    # 1. Every declared public name resolves and is documented.
    for name in repro.__all__:
        try:
            value = getattr(repro, name)
        except AttributeError as exc:
            errors.append(f"repro.{name} does not resolve: {exc}")
            continue
        if name != "__version__" and not (getattr(value, "__doc__", None) or "").strip():
            errors.append(f"repro.{name} has no docstring")

    # 2. The lazy-export map backs exactly __all__ (minus __version__).
    declared = set(repro.__all__) - {"__version__"}
    mapped = set(repro._EXPORTS)
    if declared != mapped:
        errors.append(
            f"repro.__all__ and repro._EXPORTS disagree: "
            f"only in __all__: {sorted(declared - mapped)}, "
            f"only in _EXPORTS: {sorted(mapped - declared)}")

    # 3. The docs table lists exactly the public names.
    table = _docs_table_names(DOCS.read_text(encoding="utf-8"))
    if table is None:
        errors.append(f"docs/architecture.md lacks section {DOCS_SECTION!r}")
    elif set(table) != declared:
        errors.append(
            f"docs/architecture.md public-API table drifted: "
            f"missing {sorted(declared - set(table))}, "
            f"extra {sorted(set(table) - declared)}")

    # 4. The query package's exported surface resolves.
    for name in query_pkg.__all__:
        if not hasattr(query_pkg, name):
            errors.append(f"repro.query.{name} in __all__ but missing")

    # 5. The value types stay frozen dataclasses.
    for cls_name in ("QueryOptions", "QueryResult"):
        cls = getattr(repro, cls_name)
        if not dataclasses.is_dataclass(cls) or not cls.__dataclass_params__.frozen:
            errors.append(f"{cls_name} must remain a frozen dataclass")

    # 6. Every RBayConfig knob is documented in docs/api.md.
    from repro.core.plane import RBayConfig

    fields = {f.name for f in dataclasses.fields(RBayConfig)}
    api_text = API_DOCS.read_text(encoding="utf-8")
    try:
        config_section = api_text.split(CONFIG_SECTION, 1)[1].split("### ", 1)[0]
    except IndexError:
        config_section = None
    if config_section is None:
        errors.append(f"docs/api.md lacks section {CONFIG_SECTION!r}")
    else:
        documented = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`",
                                    config_section))
        missing = sorted(fields - documented)
        if missing:
            errors.append(
                f"docs/api.md RBayConfig section is missing fields: {missing}")
        counted = re.search(r"all (\d+) fields", config_section)
        if counted is None or int(counted.group(1)) != len(fields):
            errors.append(
                f"docs/api.md RBayConfig section must say 'all {len(fields)} "
                f"fields' (found {counted.group(0) if counted else 'no count'})")

    # 7. Retired surfaces stay retired.
    for name in DENY_EXPORTS:
        for surface, names in (("repro.__all__", repro.__all__),
                               ("repro._EXPORTS", repro._EXPORTS),
                               ("repro.query.__all__", query_pkg.__all__)):
            if name in names:
                errors.append(f"retired name {name!r} reappeared in {surface}")
        if hasattr(repro, name):
            errors.append(f"retired name {name!r} resolves on repro again")
    for doc_path in (DOCS, API_DOCS):
        doc_text = doc_path.read_text(encoding="utf-8")
        for pattern in DENY_DOC_PATTERNS:
            if re.search(pattern, doc_text):
                errors.append(
                    f"retired surface {pattern!r} is documented again in "
                    f"{doc_path.relative_to(REPO)}")

    # 8. No module imports a name it never uses.
    errors.extend(f"unused import src/repro/{entry}" for entry in unused_imports())

    if errors:
        return _fail(errors)
    print(f"check_api: OK ({len(repro.__all__)} public names, "
          f"{len(query_pkg.__all__)} query exports, {len(fields)} config "
          f"fields, docs table in sync)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
