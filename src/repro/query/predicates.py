"""Query predicates: comparisons against a node's attribute values."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

_OPS = ("=", "==", "<>", "!=", "<", "<=", ">", ">=", "between")


def evaluate(actual: Any, op: str, expected: Any) -> bool:
    """Evaluate one comparison; mismatched types never match (no coercion
    surprises — a missing attribute or wrong-typed value simply fails)."""
    if op in ("=", "=="):
        return _loose_equal(actual, expected)
    if op in ("<>", "!="):
        return not _loose_equal(actual, expected)
    if op == "between":
        lo, hi = expected
        return (_both_comparable(actual, lo) and _both_comparable(actual, hi)
                and lo <= actual <= hi)
    if not _both_comparable(actual, expected):
        return False
    if op == "<":
        return actual < expected
    if op == "<=":
        return actual <= expected
    if op == ">":
        return actual > expected
    if op == ">=":
        return actual >= expected
    raise ValueError(f"unknown operator {op!r}")


def _loose_equal(actual: Any, expected: Any) -> bool:
    if isinstance(actual, bool) or isinstance(expected, bool):
        return actual is expected
    if isinstance(actual, (int, float)) and isinstance(expected, (int, float)):
        return float(actual) == float(expected)
    return actual == expected


def _both_comparable(actual: Any, expected: Any) -> bool:
    if isinstance(actual, bool) or isinstance(expected, bool):
        return False
    numeric = isinstance(actual, (int, float)) and isinstance(expected, (int, float))
    stringy = isinstance(actual, str) and isinstance(expected, str)
    return numeric or stringy


@dataclass(frozen=True)
class Predicate:
    """One WHERE clause term: ``attribute op value``.

    ``between`` predicates carry a two-element ``(lo, hi)`` tuple as their
    value and accept the closed interval ``lo <= actual <= hi``.
    """

    attribute: str
    op: str
    value: Any

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unsupported operator {self.op!r}")
        if self.op == "between":
            if not isinstance(self.value, (tuple, list)) or len(self.value) != 2:
                raise ValueError("BETWEEN requires a (lo, hi) value pair")
            object.__setattr__(self, "value", tuple(self.value))

    def matches(self, actual: Any) -> bool:
        return evaluate(actual, self.op, self.value)

    def pack(self) -> Tuple[str, str, Any]:
        """Serialize for message payloads."""
        return (self.attribute, self.op, self.value)

    @classmethod
    def unpack(cls, packed: Tuple[str, str, Any]) -> "Predicate":
        attribute, op, value = packed
        if op == "between" and isinstance(value, list):
            value = tuple(value)
        return cls(attribute, op, value)

    @classmethod
    def unpack_checks(cls, checks: Sequence[Tuple[Tuple[str, str, Any], bool]],
                      ) -> Tuple[List["Predicate"], List["Predicate"]]:
        """A plan's packed ``(predicate, implied)`` checks as ``(strict,
        implied)`` predicate lists, in order."""
        strict: List[Predicate] = []
        implied: List[Predicate] = []
        for packed, is_implied in checks:
            (implied if is_implied else strict).append(cls.unpack(packed))
        return strict, implied

    def __str__(self) -> str:
        if self.op == "between":
            lo, hi = self.value
            return f"{self.attribute} BETWEEN {lo!r} AND {hi!r}"
        return f"{self.attribute} {self.op} {self.value!r}"
