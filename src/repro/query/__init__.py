"""The SQL-like query interface and five-step execution protocol (§III-D).

``SELECT k FROM * WHERE CPU_model = "Intel Core i7" AND CPU_utilization <
10% GROUPBY CPU_utilization DESC`` is parsed into a :class:`Query`; the
executor probes candidate tree sizes, anycasts the smaller tree with a
k-entry buffer, lets each member run its predicate + AA authorization
checks, reserves the accepted nodes, and commits or releases at the end.

The stable surface for callers is :class:`QueryOptions` (keyword-only
execution knobs), the frozen :class:`QueryResult`, the typed
:class:`QueryError` family, and :class:`AdmissionController` (the bounded
in-flight window the plane routes concurrent queries through).
"""

from repro.query.admission import AdmissionController
from repro.query.backoff import TruncatedExponentialBackoff
from repro.query.errors import QueryAborted, QueryError, QueryTimeout
from repro.query.executor import QueryApplication
from repro.query.options import QueryOptions
from repro.query.predicates import Predicate, evaluate
from repro.query.result import QueryResult
from repro.query.sql import Query, SQLSyntaxError, parse_query

__all__ = [
    "AdmissionController",
    "Predicate",
    "Query",
    "QueryAborted",
    "QueryApplication",
    "QueryError",
    "QueryOptions",
    "QueryResult",
    "QueryTimeout",
    "SQLSyntaxError",
    "TruncatedExponentialBackoff",
    "evaluate",
    "parse_query",
]
