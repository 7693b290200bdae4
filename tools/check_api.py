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
the public API (``QueryContext``, ``NullRecorder``, the ``execute(payload=/
caller=/timeout=)`` keyword shims, the ``IsolationManager`` /
``LatencyRecorder`` / ``InvariantRegistry`` wrappers) must not reappear in
``repro.__all__``, the lazy-export map, the query, obs or check package
exports, or the docs, and retired modules (``repro.metrics``,
``repro.pastry.isolation``) must not come back as files.

No module under ``src/repro`` may import a name at module level that it
never uses (``__init__.py`` files re-export, so they are exempt).

Finally, telemetry stays one handle: outside ``repro/obs/`` no module
imports a recorder or registry class — components take the plane's
``Observability`` (``obs=``); the shared ``NULL_RECORDER`` is the one
allowed import.

And liveness has one seam: outside ``repro/transport/`` (which owns the
host table) and ``repro/check/`` (which audits it), only
``PastryNode.believes_alive`` / ``PastryNode.liveness_epoch`` and the
``Overlay`` oracle queries may call ``has_host`` or read the transport's
``host_epoch``; everything else asks ``believes_alive`` (and
``liveness_epoch`` for how long its answers stand).

Nothing is settable that nobody sets: a defaulted parameter of a
``src/repro`` function that has call sites in the repository, none of
which passes it, is a constant in disguise (only the
:data:`UNSET_ALLOWED` few are kept, each with its reason).

Last, a report that never fails: every ``src/repro`` module longer than
its count in :data:`LINE_BASELINE` (the counts at the last re-anchor)
whose path (``repro/...``) no ``CHANGES.md`` line written since then
names: growth that no line there explains.
"""

from __future__ import annotations

import ast
import dataclasses
import json
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
DENY_EXPORTS = ("QueryContext", "NullRecorder", "IsolationManager",
                "LatencyRecorder", "InvariantRegistry")

#: Retired modules: must never come back as files under ``src/``.
DENY_MODULES = ("repro.metrics", "repro.pastry.isolation")

#: Telemetry classes only ``repro/obs/`` may import (check 9).
OBS_INTERNALS = ("SpanRecorder", "NullRecorder", "MetricsRegistry")

#: Retired spellings: must never reappear in the docs (the docs may of
#: course *mention* QueryOptions fields like ``payload=``; these patterns
#: target the removed entry points specifically).
DENY_DOC_PATTERNS = (
    r"`QueryContext`",
    r"execute\(payload=",
    r"execute\(caller=",
    r"execute\(timeout=",
    r"`IsolationManager`",
    r"`LatencyRecorder`",
    r"`InvariantRegistry`",
    r"`repro\.metrics`",
    r"repro\.metrics\.(stats|ascii_plot|memory)",
    r"acc_memo",
    r"scribe\.acc_cache",
    r"is_deterministic",
)

#: The docs check 7 scans for retired spellings.
DENY_DOCS = (DOCS, API_DOCS, REPO / "README.md", REPO / "DESIGN.md")

#: The transport's liveness surface: the host-table probe and its epoch.
LIVENESS_READS = ("has_host", "host_epoch")

#: Where the liveness surface may be read (check 10): whole packages, and
#: the named functions of single modules (paths relative to ``src/repro``).
LIVENESS_PACKAGES = ("transport", "check")
LIVENESS_FUNCTIONS = {
    "pastry/node.py": ("PastryNode.believes_alive", "PastryNode.liveness_epoch"),
    "pastry/overlay.py": ("Overlay.root_of", "Overlay.live_nodes"),
}


#: The growth report's baseline, taken at the last re-anchor: ``modules``,
#: the line count of every ``src/repro`` module by path relative to
#: ``src/``, and ``changes_lines``, the lines ``CHANGES.md`` had then.
LINE_BASELINE = REPO / "tools" / "src_lines.json"

#: Where check 11 looks for call sites (relative to the repository).
CALL_ROOTS = ("src", "bench", "benchmarks", "examples", "tools", "tests")

#: Defaulted parameters that no call passes, kept on purpose (check 11).
UNSET_ALLOWED = {
    "ScribeApplication._adopt_joiner(origin)":
        "a handler-table entry: every handler takes (node, data, origin)",
    "StabilityAwareCustomer.query_stable(payload)":
        "the caller's credentials, which the query forwards to AA gates",
    "run_serve(out)": "an I/O sink: stdout unless a caller captures it",
    "Sanitizer(grace_ms)":
        "liveness stage 2 (ROADMAP) turns it into a checked bound",
}


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


def _modules(root: Path):
    """``(path, parsed tree)`` for every module under ``root``, sorted."""
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def unused_imports(root: Path = REPO / "src" / "repro"):
    """``path:line: name`` (paths relative to ``root``) for every
    module-level import that the module never names — in code, in a string
    annotation, or in ``__all__``."""
    found = []
    for path, tree in _modules(root):
        if path.name == "__init__.py":
            continue
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


def telemetry_imports(root: Path = REPO / "src" / "repro"):
    """``path:line: name`` (paths relative to ``root``) for every import of
    an :data:`OBS_INTERNALS` class by a module outside ``obs/``."""
    found = []
    for path, tree in _modules(root):
        relative = path.relative_to(root)
        if relative.parts[0] == "obs":
            continue
        found.extend(f"{relative}:{node.lineno}: {alias.name}"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     for alias in node.names if alias.name in OBS_INTERNALS)
    return found


def _liveness_reads(node, scope=()):
    """``(enclosing Class.function, line)`` of every ``.has_host`` /
    ``.host_epoch`` attribute read under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        elif (isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load)
                and child.attr in LIVENESS_READS):
            yield ".".join(scope), child.lineno
        yield from _liveness_reads(child, inner)


def liveness_queries(root: Path = REPO / "src" / "repro"):
    """``path:line`` (paths relative to ``root``) for every ``has_host``
    call or ``host_epoch`` read outside the one liveness seam."""
    found = []
    for path, tree in _modules(root):
        relative = path.relative_to(root)
        if relative.parts[0] in LIVENESS_PACKAGES:
            continue
        allowed = LIVENESS_FUNCTIONS.get(relative.as_posix(), ())
        found.extend(f"{relative.as_posix()}:{line}"
                     for where, line in _liveness_reads(tree)
                     if where not in allowed)
    return found


def _functions(tree):
    """``(class name or None, function node)`` for every function under
    ``tree``; the class is the one the function is directly defined in."""
    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls, child
                yield from walk(child, None)
            else:
                yield from walk(child, cls)
    yield from walk(tree, None)


def _defaulted(cls, function):
    """``(positional index or None, name)`` of each defaulted parameter;
    a method's index does not count ``self`` / ``cls``."""
    args = function.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in function.decorator_list)
    if cls is not None and not static:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    found = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
    found += [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults)
              if d is not None]
    return found


def _passes(call, index, name):
    """Whether ``call`` passes the parameter: by keyword, by position,
    or possibly through ``*`` / ``**``."""
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def unset_parameters(root: Path = REPO / "src" / "repro",
                     call_roots=tuple(REPO / r for r in CALL_ROOTS)):
    """``path:line: Name(param)`` (paths relative to ``root``) for every
    defaulted parameter of a function under ``root`` that has call sites
    under ``call_roots`` — matched by simple name, the class name for
    ``__init__`` — none of which passes it."""
    calls = {}
    for call_root in call_roots:
        for _, tree in _modules(call_root):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = (func.id if isinstance(func, ast.Name) else
                            func.attr if isinstance(func, ast.Attribute) else None)
                    calls.setdefault(name, []).append(node)
    found = []
    for path, tree in _modules(root):
        for cls, function in _functions(tree):
            init = function.name == "__init__"
            sites = calls.get(cls if init else function.name)
            if not sites:
                continue
            label = cls if init else (f"{cls}.{function.name}" if cls
                                      else function.name)
            found.extend(
                f"{path.relative_to(root).as_posix()}:{function.lineno}: "
                f"{label}({name})"
                for index, name in _defaulted(cls, function)
                if not any(_passes(call, index, name) for call in sites))
    return found


def grown_modules(root: Path = REPO / "src" / "repro",
                  baseline: Path = LINE_BASELINE,
                  changes: Path = REPO / "CHANGES.md"):
    """``(path, baseline lines, lines now)`` of every module under ``root``
    longer than its baseline count (a new module's is 0) whose path, as
    ``repro/...``, no line of ``changes`` past the baseline's names."""
    recorded = json.loads(baseline.read_text(encoding="utf-8"))
    counts = recorded["modules"]
    named = "\n".join(changes.read_text(encoding="utf-8")
                      .splitlines()[recorded["changes_lines"]:])
    grown = []
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root.parent).as_posix()
        lines = len(path.read_text(encoding="utf-8").splitlines())
        if lines > counts.get(module, 0) and module not in named:
            grown.append((module, counts.get(module, 0), lines))
    return grown


def main() -> int:
    import repro
    import repro.check as check_pkg
    import repro.obs as obs_pkg
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
                               ("repro.query.__all__", query_pkg.__all__),
                               ("repro.obs.__all__", obs_pkg.__all__),
                               ("repro.check.__all__", check_pkg.__all__)):
            if name in names:
                errors.append(f"retired name {name!r} reappeared in {surface}")
        if hasattr(repro, name):
            errors.append(f"retired name {name!r} resolves on repro again")
    for module in DENY_MODULES:
        base = REPO / "src" / Path(*module.split("."))
        if base.with_suffix(".py").exists() or (base / "__init__.py").exists():
            errors.append(f"retired module {module} is back in src/")
    for doc_path in DENY_DOCS:
        doc_text = doc_path.read_text(encoding="utf-8")
        for pattern in DENY_DOC_PATTERNS:
            if re.search(pattern, doc_text):
                errors.append(
                    f"retired surface {pattern!r} is documented again in "
                    f"{doc_path.relative_to(REPO)}")

    # 8. No module imports a name it never uses.
    errors.extend(f"unused import src/repro/{entry}" for entry in unused_imports())

    # 9. One telemetry handle: components take ``obs``, not its parts.
    errors.extend(f"telemetry class imported outside repro/obs: src/repro/{entry}"
                  for entry in telemetry_imports())

    # 10. One liveness seam: ``has_host`` / ``host_epoch`` only behind
    # ``believes_alive`` / ``liveness_epoch``.
    errors.extend(f"liveness read outside the seam: src/repro/{entry}"
                  for entry in liveness_queries())

    # 11. Nothing settable that nobody sets.
    errors.extend(f"defaulted parameter no call site passes: src/repro/{entry}"
                  for entry in unset_parameters()
                  if entry.split(": ", 1)[1] not in UNSET_ALLOWED)

    # A report, not a check: growth that CHANGES.md does not explain.
    for module, was, now in grown_modules():
        print(f"check_api: report: src/{module} grew {was} -> {now} lines "
              f"since the baseline and CHANGES.md does not name it")

    if errors:
        return _fail(errors)
    print(f"check_api: OK ({len(repro.__all__)} public names, "
          f"{len(query_pkg.__all__)} query exports, {len(fields)} config "
          f"fields, docs table in sync)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
