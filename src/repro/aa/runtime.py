"""The AA runtime: active attributes and their handler dispatch.

An :class:`ActiveAttribute` pairs a resource attribute's key-value state
with admin-written Luette code.  The code runs once at load time to build
the AA table and define handlers; afterwards the runtime re-enters the
interpreter — each time with a fresh instruction budget — whenever one of
the five events of the paper's Table I occurs:

========================  ====================================================
``onGet``                 a query performs a get on the node
``onSubscribe``           periodic check: should the node (re)join the tree?
``onUnsubscribe``         periodic check: should the node leave the tree?
``onDeliver``             a control message arrives from the administrator
``onTimer``               periodic maintenance
========================  ====================================================

Handler errors (type errors, budget exhaustion, sandbox violations) are
contained: they are logged on the attribute and the event returns its
default instead of crashing the node.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.aa import ast_nodes as ast
from repro.aa.errors import LuetteError
from repro.aa.interpreter import DEFAULT_INSTRUCTION_LIMIT, Interpreter
from repro.aa.parser import parse
from repro.aa.stdlib import make_sandbox_globals
from repro.aa.values import (
    Environment,
    LuetteFunction,
    LuetteTable,
    luette_to_python,
    python_to_luette,
)

#: The five events of the paper's Table I.
HANDLER_NAMES = ("onGet", "onSubscribe", "onUnsubscribe", "onDeliver", "onTimer")

#: Compiled-chunk cache: handler sources repeat across thousands of
#: attributes (every node of a site shares its admin's policy code), so the
#: AST is interned exactly like compiled bytecode would be.
_chunk_cache: Dict[str, ast.Block] = {}


def compile_source(source: str) -> ast.Block:
    """Parse ``source``, memoizing by text."""
    chunk = _chunk_cache.get(source)
    if chunk is None:
        chunk = parse(source)
        _chunk_cache[source] = chunk
    return chunk


class HandlerError:
    """A contained handler failure, kept for admin diagnostics."""

    __slots__ = ("handler", "message")

    def __init__(self, handler: str, message: str):
        self.handler = handler
        self.message = message

    def __repr__(self) -> str:
        return f"HandlerError({self.handler}: {self.message})"


class ActiveAttribute:
    """One resource attribute with optional procedural handlers.

    Built by :meth:`AARuntime.define`, which hands every attribute of a
    node that has handler source the runtime's one budget-metered
    interpreter (None to the others).
    """

    __slots__ = (
        "name", "value", "source", "interpreter", "chunk_env", "aa_table",
        "handlers", "errors",
    )

    def __init__(self, name: str, value: Any, source: Optional[str],
                 interpreter: Optional[Interpreter]):
        self.name = name
        self.value = value
        self.source = source
        self.errors: List[HandlerError] = []
        self.handlers: Dict[str, LuetteFunction] = {}
        self.aa_table = LuetteTable()
        self.aa_table.set("Name", name)
        self.aa_table.set("Value", python_to_luette(value))
        if source is None:
            self.interpreter = None
            self.chunk_env = None
            return
        # Shared, budget-metered interpreter (one per node runtime); the
        # budget resets on every invocation, so sharing is safe in the
        # single-threaded event loop and keeps per-AA memory at the
        # "table + closures" level the paper measures.
        self.interpreter = interpreter
        self.chunk_env = Environment(interpreter.globals, boundary=True)
        self.chunk_env.declare("AA", self.aa_table)
        chunk = compile_source(source)
        self.interpreter.run_chunk(chunk, self.chunk_env)
        # Re-read AA in case the chunk replaced the table wholesale
        # (the paper's Figure 5 style: ``AA = {NodeId = 27, ...}``).
        table = self.chunk_env.lookup("AA")
        if isinstance(table, LuetteTable):
            self.aa_table = table
        self._bind_handlers()

    def _bind_handlers(self) -> None:
        """Handlers may live in the AA table or as chunk globals (Fig. 5)."""
        for handler_name in HANDLER_NAMES:
            candidate = self.aa_table.get(handler_name)
            if not isinstance(candidate, LuetteFunction):
                candidate = self.chunk_env.vars.get(handler_name)
            if isinstance(candidate, LuetteFunction):
                self.handlers[handler_name] = candidate

    # ------------------------------------------------------------------
    def has_handler(self, handler_name: str) -> bool:
        return handler_name in self.handlers

    def invoke(self, handler_name: str, args: Tuple[Any, ...] = (), default: Any = None) -> Any:
        """Run a handler with a fresh budget; errors are contained.

        Returns the handler's return value converted back to Python, or
        ``default`` when the handler is absent or fails.
        """
        handler = self.handlers.get(handler_name)
        if handler is None or self.interpreter is None:
            return default
        self.aa_table.set("Value", python_to_luette(self.value))
        luette_args = [python_to_luette(a) for a in args]
        try:
            result = self.interpreter.call_function(handler, luette_args)
        except LuetteError as exc:
            self.errors.append(HandlerError(handler_name, str(exc)))
            return default
        # Handlers may manipulate the key-value pair's value at will
        # ("capable of manipulating the key-value pair's value arbitrarily").
        new_value = self.aa_table.get("Value")
        if new_value is not None:
            self.value = luette_to_python(new_value)
        return luette_to_python(result)

    def set_value(self, value: Any) -> None:
        """Monitoring-infrastructure update of the underlying value."""
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ActiveAttribute({self.name}={self.value!r}, handlers={sorted(self.handlers)})"


class AARuntime:
    """Per-node collection of active attributes sharing one sandbox.

    The stdlib environment and the budget-metered interpreter are shared
    across the node's attributes (the stdlib is immutable from inside
    chunks thanks to environment boundaries); each attribute gets its own
    chunk environment and AA table.  The sandbox is built when it is first
    needed — by the first attribute with handler source — so a node whose
    attributes are all plain values holds none.
    """

    def __init__(self, instruction_limit: int = DEFAULT_INSTRUCTION_LIMIT):
        self._instruction_limit = instruction_limit
        self._interpreter: Optional[Interpreter] = None
        self.attributes: Dict[str, ActiveAttribute] = {}

    @property
    def interpreter(self) -> Interpreter:
        """This node's budget-metered interpreter over its own sandbox."""
        if self._interpreter is None:
            self._interpreter = Interpreter(make_sandbox_globals(),
                                            self._instruction_limit)
        return self._interpreter

    # ------------------------------------------------------------------
    def define(self, name: str, value: Any, source: Optional[str] = None) -> ActiveAttribute:
        """Create (or replace) an attribute; ``source`` attaches handlers."""
        attribute = ActiveAttribute(name, value, source,
                                    None if source is None else self.interpreter)
        self.attributes[name] = attribute
        return attribute

    def remove(self, name: str) -> bool:
        return self.attributes.pop(name, None) is not None

    def get(self, name: str) -> Optional[ActiveAttribute]:
        return self.attributes.get(name)

    def value(self, name: str) -> Any:
        attribute = self.attributes.get(name)
        return None if attribute is None else attribute.value

    def set_value(self, name: str, value: Any) -> None:
        attribute = self.attributes.get(name)
        if attribute is None:
            self.define(name, value)
        else:
            attribute.set_value(value)

    # ------------------------------------------------------------------
    def on_get(self, name: str, caller: Any, payload: Any = None, default: Any = None) -> Any:
        """The get event: returns what the handler exposes to the caller.

        Attributes without an ``onGet`` handler return ``default`` — which
        callers set to the raw value for open attributes.
        """
        attribute = self.attributes.get(name)
        if attribute is None:
            return None
        if not attribute.has_handler("onGet"):
            return default
        return attribute.invoke("onGet", (caller, payload))

    def on_deliver(self, name: str, caller: Any, payload: Any = None) -> Any:
        attribute = self.attributes.get(name)
        if attribute is None:
            return None
        return attribute.invoke("onDeliver", (caller, payload))

    def on_timer(self, name: str) -> Any:
        attribute = self.attributes.get(name)
        if attribute is None:
            return None
        return attribute.invoke("onTimer", ())

    def should_subscribe(self, name: str, caller: Any, topic: str) -> bool:
        """The periodic onSubscribe check (truthy return → join the tree)."""
        attribute = self.attributes.get(name)
        if attribute is None:
            return False
        result = attribute.invoke("onSubscribe", (caller, topic))
        return result is not None and result is not False

    def should_unsubscribe(self, name: str, caller: Any, topic: str) -> bool:
        attribute = self.attributes.get(name)
        if attribute is None:
            return False
        result = attribute.invoke("onUnsubscribe", (caller, topic))
        return result is not None and result is not False

    def error_count(self) -> int:
        return sum(len(a.errors) for a in self.attributes.values())
