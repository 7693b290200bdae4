"""A Zql-style SQL subset parser (paper Figure 6).

Supported grammar::

    query    := SELECT target FROM sources [WHERE or_expr]
                [GROUP BY name] [GROUPBY name [ASC|DESC]] [LIMIT n] [;]
    target   := <integer k> | NodeId | *
    sources  := * | site (',' site)*           -- site: quoted or bare name
    or_expr  := and_expr (OR and_expr)*        -- flattened to DNF
    and_expr := factor (AND factor)*
    factor   := pred | '(' or_expr ')'
    pred     := name op value | value op name | name BETWEEN value AND value
    op       := = | == | <> | != | < | <= | > | >=
    value    := 'string' | "string" | number[%] | true | false

Percent literals (``10%``) parse to their numeric value (10.0), matching
how utilization attributes are stored (0–100).

The literal-on-left form (``5 < CPU_utilization``) is normalized during
parsing by mirroring the comparison (to ``CPU_utilization > 5``), so both
spellings produce identical predicates.  ``GROUP BY attr`` (two words)
aggregates matches into per-value-range counts; the historical one-word
``GROUPBY`` remains the ORDER BY spelling of the paper's Figure 6.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.query.predicates import Predicate


class SQLSyntaxError(ValueError):
    """Raised when query text does not parse."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
  | (?P<percent>\d+(?:\.\d+)?%)
  | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<op><=|>=|<>|!=|==|=|<|>)
  | (?P<punct>[*,;()])
  | (?P<name>[A-Za-z_][A-Za-z0-9_./-]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"select", "from", "where", "and", "or", "groupby", "asc", "desc",
             "order", "by", "limit", "between", "group"}

#: Comparison mirroring for the literal-on-left predicate form.
_MIRRORED_OPS = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass
class Query:
    """A parsed query.

    ``where`` holds the WHERE clause in disjunctive normal form: a list of
    disjuncts, each a conjunction (list) of predicates.  ``predicates`` is
    the first (often only) disjunct, kept for the common single-conjunction
    case and for backward compatibility.
    """

    k: Optional[int] = None            # None = return every match
    sites: Optional[List[str]] = None  # None = all sites ('FROM *')
    where: List[List[Predicate]] = field(default_factory=list)
    #: GROUP BY attribute: the result is per-value-range counts instead of
    #: node entries (bucket labels when the attribute is bucket-indexed).
    group_by: Optional[str] = None
    order_by: Optional[str] = None
    descending: bool = False
    #: Client-side satisfaction floor.  Over-asking customers inflate
    #: ``k`` (how many candidates the executor reserves) but are content
    #: once ``min_k`` grants exist; with the floor unset, ``k`` itself is
    #: the satisfaction threshold (the classic semantics).  Never set by
    #: the parser — only by shopping clients such as
    #: :class:`repro.ext.economy.CostAwareCustomer`.
    min_k: Optional[int] = None

    @property
    def predicates(self) -> List[Predicate]:
        return self.where[0] if self.where else []

    def is_disjunctive(self) -> bool:
        return len(self.where) > 1

    def __str__(self) -> str:
        target = "*" if self.k is None else str(self.k)
        source = "*" if self.sites is None else ", ".join(self.sites)
        text = f"SELECT {target} FROM {source}"
        if self.where:
            disjuncts = [
                " AND ".join(str(p) for p in conjunction)
                for conjunction in self.where
            ]
            if len(disjuncts) == 1:
                text += " WHERE " + disjuncts[0]
            else:
                text += " WHERE " + " OR ".join(f"({d})" for d in disjuncts)
        if self.group_by:
            text += f" GROUP BY {self.group_by}"
        if self.order_by:
            text += f" GROUPBY {self.order_by} {'DESC' if self.descending else 'ASC'}"
        return text


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise SQLSyntaxError(f"unexpected character {text[pos]!r} at offset {pos}")
        pos = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        value = match.group()
        if kind == "name" and value.lower() in _KEYWORDS:
            tokens.append(("kw", value.lower()))
        else:
            tokens.append((kind, value))
    tokens.append(("eof", ""))
    return tokens


class _Parser:
    def __init__(self, tokens: List[Tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Tuple[str, str]:
        return self.tokens[self.pos]

    def next(self) -> Tuple[str, str]:
        token = self.tokens[self.pos]
        if token[0] != "eof":
            self.pos += 1
        return token

    def accept(self, kind: str, value: Optional[str] = None) -> bool:
        token = self.peek()
        if token[0] == kind and (value is None or token[1] == value):
            self.next()
            return True
        return False

    def expect(self, kind: str, value: Optional[str] = None) -> str:
        token = self.peek()
        if token[0] != kind or (value is not None and token[1] != value):
            want = value or kind
            raise SQLSyntaxError(f"expected {want!r}, found {token[1]!r}")
        return self.next()[1]

    # ------------------------------------------------------------------
    def parse(self) -> Query:
        self.expect("kw", "select")
        query = Query()
        token = self.peek()
        if token[0] == "number":
            query.k = int(float(self.next()[1]))
            if query.k <= 0:
                raise SQLSyntaxError("SELECT k requires a positive k")
        elif token == ("punct", "*"):
            self.next()
        elif token[0] == "name" and token[1].lower() == "nodeid":
            self.next()
        else:
            raise SQLSyntaxError(f"bad SELECT target {token[1]!r}")

        self.expect("kw", "from")
        if self.accept("punct", "*"):
            query.sites = None
        else:
            sites = [self._site_name()]
            while self.accept("punct", ","):
                sites.append(self._site_name())
            # A repeated name is one site: keep its first occurrence.
            query.sites = list(dict.fromkeys(sites))

        if self.accept("kw", "where"):
            query.where = self._or_expression()

        if self.accept("kw", "group"):
            self.expect("kw", "by")
            query.group_by = self.expect("name")

        if self.accept("kw", "groupby") or (
            self.accept("kw", "order") and self.expect("kw", "by")
        ):
            query.order_by = self.expect("name")
            if self.accept("kw", "desc"):
                query.descending = True
            else:
                self.accept("kw", "asc")

        if self.accept("kw", "limit"):
            query.k = int(float(self.expect("number")))

        self.accept("punct", ";")
        if self.peek()[0] != "eof":
            raise SQLSyntaxError(f"unexpected trailing token {self.peek()[1]!r}")
        return query

    # -- WHERE grammar: or_expr := and_expr (OR and_expr)* ;
    #    and_expr := factor (AND factor)* ;
    #    factor := predicate | '(' or_expr ')'
    # The result is flattened to disjunctive normal form.
    def _or_expression(self) -> List[List[Predicate]]:
        disjuncts = list(self._and_expression())
        while self.accept("kw", "or"):
            disjuncts.extend(self._and_expression())
        return disjuncts

    def _and_expression(self) -> List[List[Predicate]]:
        dnf = self._factor()
        while self.accept("kw", "and"):
            right = self._factor()
            # AND of two DNFs: pairwise concatenation (distribution).
            dnf = [a + b for a in dnf for b in right]
            if len(dnf) > 64:
                raise SQLSyntaxError("WHERE clause expands to too many disjuncts")
        return dnf

    def _factor(self) -> List[List[Predicate]]:
        if self.accept("punct", "("):
            inner = self._or_expression()
            self.expect("punct", ")")
            return inner
        return [[self._predicate()]]

    def _site_name(self) -> str:
        token = self.peek()
        if token[0] == "string":
            return _unquote(self.next()[1])
        if token[0] == "name":
            return self.next()[1]
        raise SQLSyntaxError(f"bad site name {token[1]!r}")

    def _predicate(self) -> Predicate:
        token = self.peek()
        if token[0] in ("number", "percent", "string"):
            # Literal-on-left form (``5 < CPU_utilization``): mirror the
            # comparison so both spellings yield the same predicate.
            value = self._value()
            op = self.expect("op")
            attribute = self.expect("name")
            op = _MIRRORED_OPS.get(op, op)
        else:
            attribute = self.expect("name")
            if self.accept("kw", "between"):
                lo = self._value()
                self.expect("kw", "and")
                hi = self._value()
                return Predicate(attribute, "between", (lo, hi))
            op = self.expect("op")
            value = self._value()
        if op == "==":
            op = "="
        if op == "!=":
            op = "<>"
        return Predicate(attribute, op, value)

    def _value(self) -> Any:
        kind, text = self.next()
        if kind == "string":
            return _unquote(text)
        if kind == "percent":
            return float(text[:-1])
        if kind == "number":
            return float(text)
        if kind == "name":
            lowered = text.lower()
            if lowered == "true":
                return True
            if lowered == "false":
                return False
            return text  # bare word: treat as string literal
        raise SQLSyntaxError(f"bad literal {text!r}")


def _unquote(text: str) -> str:
    body = text[1:-1]
    return re.sub(r"\\(.)", r"\1", body)


def parse_query(text: str) -> Query:
    """Parse SQL text into a :class:`Query`."""
    return _Parser(_tokenize(text)).parse()
