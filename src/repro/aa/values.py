"""Runtime values for Luette.

Luette mirrors Lua's value set: nil (``None``), booleans, numbers (Python
floats), strings, tables, and functions.  "Lua technically only has one
data structure, a table (an associative array)" — :class:`LuetteTable` is
that structure, and AA state is stored in one.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.aa.errors import LuetteRuntimeError


class LuetteTable:
    """An associative array with Lua semantics.

    Numeric keys that are whole floats unify with their integer form so
    ``t[1]`` and ``t[1.0]`` alias, as in Lua.  ``None`` is not a valid key,
    and assigning nil removes the key.
    """

    __slots__ = ("_data",)

    def __init__(self):
        self._data: Dict[Any, Any] = {}

    #: Sentinels keeping boolean keys distinct from 1/0 (Python hashes
    #: True == 1; Lua tables treat them as different keys).
    _TRUE_KEY = ("\0bool", True)
    _FALSE_KEY = ("\0bool", False)

    @classmethod
    def _normalize_key(cls, key: Any) -> Any:
        if isinstance(key, bool):
            return cls._TRUE_KEY if key else cls._FALSE_KEY
        if isinstance(key, float) and key.is_integer():
            return int(key)
        return key

    @classmethod
    def _denormalize_key(cls, key: Any) -> Any:
        if key == cls._TRUE_KEY:
            return True
        if key == cls._FALSE_KEY:
            return False
        return key

    def get(self, key: Any) -> Any:
        if key is None:
            return None
        return self._data.get(self._normalize_key(key))

    def set(self, key: Any, value: Any) -> None:
        """Store ``key -> value``; assigning nil deletes the key."""
        if key is None:
            raise LuetteRuntimeError("table index is nil")
        key = self._normalize_key(key)
        if value is None:
            self._data.pop(key, None)
        else:
            self._data[key] = value

    def length(self) -> int:
        """Lua's ``#``: the border of the array part (1..n contiguous)."""
        n = 0
        while (n + 1) in self._data:
            n += 1
        return n

    def pairs(self) -> Iterator[Tuple[Any, Any]]:
        """Deterministic iteration: array part first, then insertion order."""
        n = self.length()
        for i in range(1, n + 1):
            yield i, self._data[i]
        for key, value in self._data.items():
            if isinstance(key, int) and not isinstance(key, bool) and 1 <= key <= n:
                continue
            yield self._denormalize_key(key), value

    def ipairs(self) -> Iterator[Tuple[int, Any]]:
        i = 1
        while i in self._data:
            yield i, self._data[i]
            i += 1

    def keys(self) -> List[Any]:
        return [k for k, _ in self.pairs()]

    def raw(self) -> Dict[Any, Any]:
        """The underlying dict (used by the host bridge; do not mutate)."""
        return self._data

    def __len__(self) -> int:
        return self.length()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LuetteTable({self._data!r})"


class LuetteFunction:
    """A closure: parameter list, body, and the defining environment."""

    __slots__ = ("params", "body", "env", "name")

    def __init__(self, params: List[str], body: Any, env: "Environment", name: str = "?"):
        self.params = params
        self.body = body
        self.env = env
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<function {self.name}>"


class ExcludedLibrary:
    """Marker for a library excluded from the sandbox (os, io, ...).

    Any attempt to index or call it raises :class:`SandboxViolation` —
    surfacing policy bugs loudly, as the paper's modified interpreter does
    by unloading the libraries entirely.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<excluded library {self.name}>"


class BuiltinFunction:
    """A host-provided function exposed inside the sandbox."""

    __slots__ = ("fn", "name")

    def __init__(self, fn, name: str):
        self.fn = fn
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<builtin {self.name}>"


class Environment:
    """A lexical scope chain.

    An environment marked as a *boundary* absorbs new global creations: when
    a chunk assigns an undeclared name, the variable is created at the
    nearest boundary below the shared stdlib environment, so one attribute's
    handlers can never pollute another's globals.
    """

    __slots__ = ("vars", "parent", "boundary")

    def __init__(self, parent: Optional["Environment"] = None, boundary: bool = False):
        self.vars: Dict[str, Any] = {}
        self.parent = parent
        self.boundary = boundary

    def lookup(self, name: str) -> Any:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        return None  # unknown globals are nil, as in Lua

    def assign(self, name: str, value: Any) -> None:
        """Assign to the nearest scope declaring ``name``, never crossing a
        boundary: names above the boundary (the shared stdlib) are readable
        but writes shadow them at the boundary instead of mutating them."""
        env: Optional[Environment] = self
        last: Optional[Environment] = None
        while env is not None:
            if name in env.vars:
                env.vars[name] = value
                return
            last = env
            if env.boundary:
                break
            env = env.parent
        last.vars[name] = value

    def declare(self, name: str, value: Any) -> None:
        self.vars[name] = value


def type_name(value: Any) -> str:
    """Lua's ``type()`` strings."""
    if value is None:
        return "nil"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, LuetteTable):
        return "table"
    if isinstance(value, (LuetteFunction, BuiltinFunction)):
        return "function"
    return "userdata"


def is_truthy(value: Any) -> bool:
    """Lua truthiness: only nil and false are falsy (0 and "" are true)."""
    return value is not None and value is not False


def tostring(value: Any) -> str:
    """Lua's tostring: canonical text for any sandbox value."""
    if value is None:
        return "nil"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value.is_integer() and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    return repr(value)


def tonumber(value: Any) -> Optional[float]:
    """Lua's tonumber: numeric coercion, or None when impossible."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            if text.lower().startswith("0x"):
                return float(int(text, 16))
            return float(text)
        except ValueError:
            return None
    return None


def python_to_luette(value: Any) -> Any:
    """Bridge host values into the sandbox (dicts/lists become tables)."""
    if isinstance(value, dict):
        table = LuetteTable()
        for key, item in value.items():
            table.set(python_to_luette(key), python_to_luette(item))
        return table
    if isinstance(value, (list, tuple)):
        table = LuetteTable()
        for i, item in enumerate(value, start=1):
            table.set(i, python_to_luette(item))
        return table
    if isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    return value


def luette_to_python(value: Any) -> Any:
    """Bridge sandbox values back to the host."""
    if isinstance(value, LuetteTable):
        n = value.length()
        keys = value.keys()
        if n and len(keys) == n:
            return [luette_to_python(value.get(i)) for i in range(1, n + 1)]
        return {k: luette_to_python(v) for k, v in value.pairs()}
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return int(value)
    return value
