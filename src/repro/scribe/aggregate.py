"""Composable aggregation functions for in-network roll-up.

The paper (§II-B3) permits "any composable function, such as filter, sum,
maximum or minimum, as long as it satisfies the hierarchical computation
property": combining partial results of subtrees must equal computing over
the union of their leaves.  Each function here is expressed as a commutative
monoid plus a ``lift`` from member-local values into the monoid and a
``finalize`` out of it, which makes the hierarchical property hold by
construction.

A tree node's accumulator is one :meth:`AggregateFunction.fold` of its own
value and its children's accumulators.  The base class folds through
``zero``/``lift``/``combine``; sum, min and max, the ones a publish
storm rolls up, override it with the very same operations in the same
order, inlined, so a roll-up pays for the arithmetic rather than three
method calls per child.  Sums are explicit ``+`` in order, never the
builtin ``sum()`` (compensated from Python 3.12): every override is
bit-identical to the generic fold.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional


class AggregateFunction:
    """A hierarchical aggregate = (zero, lift, combine, finalize)."""

    name = "abstract"

    def zero(self) -> Any:
        """Identity element of ``combine``."""
        raise NotImplementedError

    def lift(self, local_value: Any) -> Any:
        """Map a member's local value into the accumulator domain."""
        return local_value

    def combine(self, a: Any, b: Any) -> Any:
        """Associative, commutative combination of accumulators."""
        raise NotImplementedError

    def finalize(self, acc: Any) -> Any:
        """Map the root accumulator to the user-visible result."""
        return acc

    def fold(self, values: Iterable[Any], accs: Iterable[Any]) -> Any:
        """``zero``, combined with each of ``values`` lifted, then with each
        of ``accs``, in order: a node's accumulator from its own value (at
        most one) and its children's accumulators."""
        acc = self.zero()
        for value in values:
            acc = self.combine(acc, self.lift(value))
        for child in accs:
            acc = self.combine(acc, child)
        return acc


class CountFunction(AggregateFunction):
    """Tree size: every member contributes 1 (used for query step 1/2)."""

    name = "count"

    def zero(self) -> int:
        return 0

    def lift(self, local_value: Any) -> int:
        return 1

    def combine(self, a: int, b: int) -> int:
        return a + b


class SumFunction(AggregateFunction):
    """Sum of member values."""

    name = "sum"

    def zero(self) -> float:
        return 0.0

    def lift(self, local_value: Any) -> float:
        return float(local_value)

    def combine(self, a: float, b: float) -> float:
        return a + b

    def fold(self, values: Iterable[Any], accs: Iterable[float]) -> float:
        acc = 0.0
        for value in values:
            acc = acc + float(value)
        for child in accs:
            acc = acc + child
        return acc


class MinFunction(AggregateFunction):
    """Minimum; ``None`` is the identity (empty subtree)."""

    name = "min"

    def zero(self) -> Optional[float]:
        return None

    def lift(self, local_value: Any) -> float:
        return float(local_value)

    def combine(self, a: Optional[float], b: Optional[float]) -> Optional[float]:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def fold(self, values: Iterable[Any],
             accs: Iterable[Optional[float]]) -> Optional[float]:
        """The generic fold inlined: ``min(a, b)`` keeps ``a`` unless
        ``b < a``, and so does this; a None child changes nothing."""
        acc = None
        for value in values:
            value = float(value)
            if acc is None or value < acc:
                acc = value
        for child in accs:
            if acc is None or (child is not None and child < acc):
                acc = child
        return acc


class MaxFunction(AggregateFunction):
    """Maximum; ``None`` is the identity (empty subtree)."""

    name = "max"

    def zero(self) -> Optional[float]:
        return None

    def lift(self, local_value: Any) -> float:
        return float(local_value)

    def combine(self, a: Optional[float], b: Optional[float]) -> Optional[float]:
        if a is None:
            return b
        if b is None:
            return a
        return max(a, b)

    def fold(self, values: Iterable[Any],
             accs: Iterable[Optional[float]]) -> Optional[float]:
        """The generic fold inlined: ``max(a, b)`` keeps ``a`` unless
        ``b > a``, and so does this; a None child changes nothing."""
        acc = None
        for value in values:
            value = float(value)
            if acc is None or value > acc:
                acc = value
        for child in accs:
            if acc is None or (child is not None and child > acc):
                acc = child
        return acc


class AvgFunction(AggregateFunction):
    """Average of member values, carried as a (sum, count) pair."""

    name = "avg"

    def zero(self) -> tuple:
        return (0.0, 0)

    def lift(self, local_value: Any) -> tuple:
        return (float(local_value), 1)

    def combine(self, a: tuple, b: tuple) -> tuple:
        return (a[0] + b[0], a[1] + b[1])

    def finalize(self, acc: tuple) -> Optional[float]:
        total, count = acc
        return None if count == 0 else total / count


class AnyFunction(AggregateFunction):
    """Boolean OR across members (e.g. "does any node have a GPU free?")."""

    name = "any"

    def zero(self) -> bool:
        return False

    def lift(self, local_value: Any) -> bool:
        return bool(local_value)

    def combine(self, a: bool, b: bool) -> bool:
        return a or b


class AllFunction(AggregateFunction):
    """Boolean AND across members."""

    name = "all"

    def zero(self) -> bool:
        return True

    def lift(self, local_value: Any) -> bool:
        return bool(local_value)

    def combine(self, a: bool, b: bool) -> bool:
        return a and b


class FilterCountFunction(AggregateFunction):
    """Count of members whose local value satisfies a predicate ("filter")."""

    name = "filter_count"

    def __init__(self, predicate: Callable[[Any], bool], name: Optional[str] = None):
        self._predicate = predicate
        if name is not None:
            self.name = name

    def zero(self) -> int:
        return 0

    def lift(self, local_value: Any) -> int:
        return 1 if self._predicate(local_value) else 0

    def combine(self, a: int, b: int) -> int:
        return a + b


#: Built-in aggregate registry, extended by callers at will.
AGGREGATE_FUNCTIONS: Dict[str, AggregateFunction] = {
    fn.name: fn
    for fn in (
        CountFunction(),
        SumFunction(),
        MinFunction(),
        MaxFunction(),
        AvgFunction(),
        AnyFunction(),
        AllFunction(),
    )
}

#: Factories for aggregates that need construction-time parameters.  The
#: zero-arg built-ins above are shared instances; these are constructors,
#: looked up by the same name space (paper: "filter" is a first-class
#: composable function, §II-B3).
AGGREGATE_FACTORIES: Dict[str, Callable[..., AggregateFunction]] = {
    "filter_count": FilterCountFunction,
}


def make_aggregate(name: str, /, *args: Any, **kwargs: Any) -> AggregateFunction:
    """Instantiate a registered aggregate function by name.

    Zero-arg lookups return the shared :data:`AGGREGATE_FUNCTIONS`
    instance; parameterized lookups (``make_aggregate("filter_count",
    predicate, name="busy")``) construct a fresh instance through
    :data:`AGGREGATE_FACTORIES`.  Raises ``KeyError`` for unknown names,
    or for arguments passed to a non-parameterized aggregate.
    """
    if not args and not kwargs:
        fn = AGGREGATE_FUNCTIONS.get(name)
        if fn is not None:
            return fn
    factory = AGGREGATE_FACTORIES.get(name)
    if factory is None:
        raise KeyError(f"unknown or non-parameterized aggregate function {name!r}")
    return factory(*args, **kwargs)
