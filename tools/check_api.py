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
which passes it, is a constant in disguise, and so is a defaulted field
of a ``src/repro`` dataclass that no construction, ``replace`` or
assignment sets (only the :data:`UNSET_ALLOWED` few are kept, each with
its reason).  A constructor call, and a ``replace`` target, count for the
class the calling module's imports and definitions name, so a benchmark's
own same-named dataclass sets nothing in ``src/``.

Last, a report that never fails: every ``src/repro`` module longer than
its count in :data:`LINE_BASELINE` (the counts at the last re-anchor)
whose path (``repro/...``) no ``CHANGES.md`` line written since then
names: growth that no line there explains.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
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

#: Defaulted parameters that no call passes and dataclass fields that no
#: call sets, kept on purpose (check 11).
UNSET_ALLOWED = {
    "ScribeApplication._adopt_joiner(origin)":
        "a handler-table entry: every handler takes (node, data, origin)",
    "StabilityAwareCustomer.query_stable(payload)":
        "the caller's credentials, which the query forwards to AA gates",
    "run_serve(out)": "an I/O sink: stdout unless a caller captures it",
    "Sanitizer(grace_ms)":
        "liveness stage 2 (ROADMAP) turns it into a checked bound",
    "RBayConfig.live_bind_host":
        "a deployment address: the interface is the operator's to choose",
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


@functools.lru_cache(maxsize=None)
def _parse(source: str) -> ast.Module:
    """A module's tree, parsed once per source text: checks 8 to 11 walk
    the same modules, and parsing is most of their time."""
    return ast.parse(source)


def _modules(root: Path):
    """``(path, parsed tree)`` for every module under ``root``, sorted."""
    for path in sorted(root.rglob("*.py")):
        yield path, _parse(path.read_text(encoding="utf-8"))


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


def _simple_name(node):
    return (node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else None)


def _module_name(path: Path, call_root: Path) -> str:
    """The dotted name ``path`` is imported by from ``call_root`` (a
    ``src/`` tree's packages, a benchmark or tool directory's modules)."""
    parts = path.relative_to(call_root).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _call_index(call_roots):
    """``(calls, assigned, bases, modules, origins)`` over every module
    under ``call_roots``: each call as ``(call, enclosing class, scope)``
    by the callee's simple name; for each assigned attribute name, the
    classes whose methods assign ``self.<name>`` (None for an assignment
    to anything else); each class's base names; each module's names
    (:func:`_names`); and each call's ``(module, dotted callee)``."""
    return _index(tuple((_module_name(path, root), path.name == "__init__.py",
                         path.read_text(encoding="utf-8"))
                        for root in call_roots
                        for path in sorted(root.rglob("*.py"))))


def _names(tree, module, package):
    """``{name: dotted origin}`` a module binds by an import (anywhere in
    it) or a top-level class definition."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    head = alias.name.partition(".")[0]
                    names[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative to the module's package
                parts = package.split(".")
                base = ".".join(parts[:len(parts) + 1 - node.level] + [base]).rstrip(".")
            for alias in node.names:
                names[alias.asname or alias.name] = f"{base}.{alias.name}"
    names.update((stmt.name, f"{module}.{stmt.name}") for stmt in tree.body
                 if isinstance(stmt, ast.ClassDef))
    return names


def _dotted(node, names):
    """The dotted origin of a ``Name`` / ``Attribute`` chain, or None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, names)
        return base and f"{base}.{node.attr}"
    return None


def _canonical(dotted, modules):
    """``dotted`` followed through the re-exports of indexed modules to
    where it is defined."""
    seen = set()
    while dotted not in seen:
        seen.add(dotted)
        module, _, name = dotted.rpartition(".")
        dotted = modules.get(module, {}).get(name, dotted)
    return dotted


@functools.lru_cache(maxsize=4)
def _index(sources):
    """One walk of every tree that keeps, for each node, its innermost
    enclosing class (None outside one) and function or lambda (the
    module itself outside one)."""
    calls, assigned, bases, modules, origins = {}, {}, {}, {}, {}
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    for module, package, source in sources:
        tree = _parse(source)
        names = modules[module] = _names(
            tree, module, module if package else module.rpartition(".")[0])
        stack = [(tree, None, tree)]
        while stack:
            node, cls, scope = stack.pop()
            for child in ast.iter_child_nodes(node):
                kind = type(child)
                if kind is ast.Call:
                    calls.setdefault(_simple_name(child.func), []).append(
                        (child, cls, scope))
                    origins[child] = (module, _dotted(child.func, names))
                elif kind is ast.Attribute and type(child.ctx) is ast.Store:
                    self_store = (type(child.value) is ast.Name
                                  and child.value.id == "self")
                    assigned.setdefault(child.attr, set()).add(
                        cls if self_store else None)
                elif kind is ast.ClassDef:
                    bases[child.name] = [_simple_name(b) for b in child.bases]
                    stack.append((child, child.name, scope))
                    continue
                stack.append((child, cls, child if kind in scopes else scope))
    return calls, assigned, bases, modules, origins


def _may_name(dotted, qualified, modules):
    """Whether ``dotted`` may name the class defined as ``qualified``: it
    resolves to it, or to nothing the index defines and by the same simple
    name (a lazy package export, a module outside the indexed trees)."""
    canonical = _canonical(dotted, modules)
    module, _, name = canonical.rpartition(".")
    if name in modules.get(module, ()):
        return canonical == qualified
    return name == qualified.rpartition(".")[2]


def _constructs(call, qualified, modules, origins):
    """Whether ``call`` may construct the class defined as ``qualified``:
    a callee its module's imports and definitions do not name (a bare
    fixture name, a parameter) may; a named one must :func:`_may_name` it."""
    dotted = origins[call][1]
    return dotted is None or _may_name(dotted, qualified, modules)


def unset_parameters(root: Path = REPO / "src" / "repro",
                     call_roots=tuple(REPO / r for r in CALL_ROOTS)):
    """``path:line: Name(param)`` (paths relative to ``root``) for every
    defaulted parameter of a function under ``root`` that has call sites
    under ``call_roots`` — matched by simple name, the class name for
    ``__init__`` (a call that :func:`_constructs` it) — none of which
    passes it."""
    calls, _, _, modules, origins = _call_index(call_roots)
    found = []
    for path, tree in _modules(root):
        module = _module_name(path, root.parent)
        for cls, function in _functions(tree):
            init = function.name == "__init__"
            sites = calls.get(cls if init else function.name, ())
            if init:
                sites = [site for site in sites if _constructs(
                    site[0], f"{module}.{cls}", modules, origins)]
            if not sites:
                continue
            label = cls if init else (f"{cls}.{function.name}" if cls
                                      else function.name)
            found.extend(
                f"{path.relative_to(root).as_posix()}:{function.lineno}: "
                f"{label}({name})"
                for index, name in _defaulted(cls, function)
                if not any(_passes(call, index, name) for call, _, _ in sites))
    return found


def _literal_keys(value):
    """The keys of a ``dict(k=...)`` call or a dict literal with string
    keys; None for anything else."""
    if isinstance(value, ast.Dict):
        if all(isinstance(k, ast.Constant) and isinstance(k.value, str)
               for k in value.keys):
            return {k.value for k in value.keys}
    elif (isinstance(value, ast.Call) and _simple_name(value.func) == "dict"
            and not value.args and all(k.arg for k in value.keywords)):
        return {k.arg for k in value.keywords}
    return None


def _passed_keywords(sites):
    """The keywords any of ``sites`` passes; None when one passes ``**``."""
    keys = set()
    for call, _, _ in sites:
        for keyword in call.keywords:
            if keyword.arg is None:
                return None
            keys.add(keyword.arg)
    return keys


def _spread_keys(value, cls, scope, calls):
    """The keys a ``**value`` in ``scope`` can carry, or None for any: a
    dict literal's, a name bound in the scope to ``dict(...)`` or a dict
    literal (plus its ``.update`` keys), or the scope's own ``**kwargs``,
    whose keys are the keywords its call sites pass."""
    kwarg = getattr(getattr(scope, "args", None), "kwarg", None)

    def keys_of(node):
        if (isinstance(node, ast.Name) and kwarg is not None
                and node.id == kwarg.arg):
            if isinstance(scope, ast.Lambda):
                return None
            name = cls if scope.name == "__init__" else scope.name
            return _passed_keywords(calls.get(name, ()))
        return _literal_keys(node)

    if not isinstance(value, ast.Name) or (kwarg and value.id == kwarg.arg):
        return keys_of(value)
    keys, updates = None, set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == value.id for t in node.targets):
            bound = _literal_keys(node.value)
            if bound is None:
                return None
            keys = bound | (keys or set())
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "update"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == value.id):
            for extra in [_passed_keywords([(node, None, None)]),
                          *map(keys_of, node.args)]:
                if extra is None:
                    return None
                updates |= extra
    return None if keys is None else keys | updates


def _statements(body):
    """Every statement in ``body`` and, recursively, in the blocks of
    those statements (class and function bodies included)."""
    for stmt in body:
        yield stmt
        for block in ("body", "orelse", "finalbody", "handlers"):
            inner = getattr(stmt, block, None)
            if isinstance(inner, list):
                yield from _statements(inner)


def _dataclass_fields(node):
    """``(name, line, judged, keyword-only)`` for each field a dataclass
    body declares, in order; ``judged`` marks a default that is not a
    ``default_factory``."""
    kw_only = any(k.arg == "kw_only" and getattr(k.value, "value", False)
                  for d in node.decorator_list if isinstance(d, ast.Call)
                  for k in d.keywords)
    for stmt in node.body:
        if (not isinstance(stmt, ast.AnnAssign)
                or not isinstance(stmt.target, ast.Name)
                or "ClassVar" in ast.unparse(stmt.annotation)):
            continue
        options = {}
        if (isinstance(stmt.value, ast.Call)
                and _simple_name(stmt.value.func) == "field"):
            options = {k.arg: getattr(k.value, "value", None)
                       for k in stmt.value.keywords}
        judged = stmt.value is not None and (
            not options or "default" in options)
        yield (stmt.target.id, stmt.lineno, judged,
               options.get("kw_only", kw_only))


def unset_fields(root: Path = REPO / "src" / "repro",
                 call_roots=tuple(REPO / r for r in CALL_ROOTS)):
    """``path:line: Class.field`` (paths relative to ``root``) for every
    defaulted field a dataclass under ``root`` declares, when the class has
    call sites under ``call_roots`` (its own that :func:`_constructs` it,
    a subclass's, or ``cls(...)`` inside either) and no call passes the
    field (by keyword, by position, by ``*``, or by a ``**`` that may carry
    it), no ``dataclasses.replace`` that may target the class names it, and
    no code assigns ``x.field`` (``self.field`` counts only inside a
    related class).  ``default_factory`` fields are not judged."""
    calls, assigned, bases, modules, origins = _call_index(call_roots)

    def family(name, up):
        """``name`` and its ancestors (``up``) or descendants."""
        found, todo = {name}, [name]
        while todo:
            current = todo.pop()
            step = (bases.get(current, ()) if up else
                    [c for c, bs in bases.items() if current in bs])
            todo += [c for c in step if c not in found]
            found.update(step)
        return found

    def spread(call, cls, scope):
        """The keywords ``call`` may pass; ``"*"`` stands for any."""
        keys = {k.arg for k in call.keywords if k.arg}
        for keyword in call.keywords:
            if keyword.arg is None:
                spread_keys = _spread_keys(keyword.value, cls, scope, calls)
                keys |= {"*"} if spread_keys is None else spread_keys
        return keys

    def replaces(call, name, qualified):
        """Whether a ``replace`` call may target the class: a constructed
        target is resolved as a constructor; any other counts in a module
        whose names resolve to the class or to its module."""
        target = call.args[0]
        if isinstance(target, ast.Call):
            return (_simple_name(target.func) == name
                    and _constructs(target, qualified, modules, origins))
        return any(_may_name(dotted, qualified, modules)
                   or _canonical(dotted, modules) == qualified.rpartition(".")[0]
                   for dotted in modules[origins[call][0]].values())

    classes = {}
    for path, tree in _modules(root):
        for node in _statements(tree.body):
            if isinstance(node, ast.ClassDef) and any(
                    _simple_name(getattr(d, "func", d)) == "dataclass"
                    for d in node.decorator_list):
                classes[node.name] = (path, node)

    def ordered_fields(name):
        fields = {}
        for base in bases.get(name, ()):
            if base in classes and base != name:
                fields.update((f[0], f) for f in ordered_fields(base))
        fields.update((f[0], f) for f in _dataclass_fields(classes[name][1]))
        return list(fields.values())

    found = []
    for name, (path, node) in classes.items():
        qualified = f"{_module_name(path, root.parent)}.{name}"
        below = family(name, up=False)
        sites = [site for sub in below for site in calls.get(sub, ())
                 if sub != name
                 or _constructs(site[0], qualified, modules, origins)]
        sites += [site for site in calls.get("cls", ()) if site[1] in below]
        if not sites:
            continue
        related = below | family(name, up=True)
        passed = set().union(*(spread(*site) for site in sites))
        replaced = set().union(*(spread(*site) for site in calls.get("replace", ())
                                 if site[0].args
                                 and replaces(site[0], name, qualified)))
        positional = [f[0] for f in ordered_fields(name) if not f[3]]
        for field_name, line, judged, _ in _dataclass_fields(node):
            if not judged or {field_name, "*"} & (passed | replaced):
                continue
            if field_name in positional and any(
                    len(call.args) > positional.index(field_name)
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    for call, _, _ in sites):
                continue
            writers = assigned.get(field_name, set())
            if None in writers or writers & related:
                continue
            found.append(f"{path.relative_to(root).as_posix()}:{line}: "
                         f"{name}.{field_name}")
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
    for what, entries in (("defaulted parameter no call site passes",
                           unset_parameters()),
                          ("config field no call site sets", unset_fields())):
        errors.extend(f"{what}: src/repro/{entry}" for entry in entries
                      if entry.split(": ", 1)[1] not in UNSET_ALLOWED)
    # The parsed trees are done with: dropping them here costs far less
    # than the interpreter's teardown of them at exit.
    _parse.cache_clear()
    _index.cache_clear()

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
