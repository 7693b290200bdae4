"""Per-query execution options for the stable public API.

:class:`QueryOptions` is the one keyword-only, frozen bundle of execution
knobs (payload, caller, deadline, retry budget, LIMIT, planner, ...), so
the public signature — ``RBay.query(sql, *, options=QueryOptions(...))``
— never has to change when a new knob is added.  It is the only way to
pass them: :meth:`repro.query.executor.QueryApplication.execute` takes
no per-knob keywords, and the plane holds no default for any of them.
The options travel with the query to every site it asks, so each site
runs it under the coordinator's settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

#: Per-step retry budget of a query whose ``retries`` is None.
DEFAULT_RETRIES = 2


@dataclass(frozen=True, kw_only=True)
class QueryOptions:
    """Keyword-only bundle of per-query execution knobs.

    Every field has a default, so ``QueryOptions()`` is always a valid
    argument.

    Attributes
    ----------
    payload:
        Opaque dict carried to every visited member's AA ``onGet``
        authorization check (e.g. credentials, a budget ceiling).
    caller:
        Caller identity presented to authorization checks and recorded
        against reservations.
    deadline_ms:
        Overall caller deadline; when it elapses first the query resolves
        to a typed :class:`~repro.query.errors.QueryTimeout` and any
        reservations are released.  ``None`` waits for the protocol to
        conclude on its own.
    retries:
        Per-step retry budget: a timed-out protocol step (probe round,
        one tree's anycast, remote site request) is retried through the
        truncated-exponential backoff this many times before it is
        written off.  ``None`` is :data:`DEFAULT_RETRIES`; 0 is the
        retries-off ablation arm (a lost step fails at once).
    k:
        Override of the query's LIMIT — takes precedence over the ``k``
        parsed from the SQL text.
    origin:
        Site name whose query interface should coordinate the query (the
        facade picks a gateway node there).  ``None`` uses the first site
        in the federation registry.
    planner:
        Interval → bucket routing of range predicates over bucketed
        attribute indices.  ``False`` forces the bucket-unaware baseline
        (probe and search the whole bucket family with strict checks) —
        the planner-off ablation arm.
    """

    payload: Optional[Dict[str, Any]] = None
    caller: Optional[str] = None
    deadline_ms: Optional[float] = None
    retries: Optional[int] = None
    k: Optional[int] = None
    origin: Optional[str] = None
    planner: bool = True

    def __post_init__(self) -> None:
        # Values no query can mean: SELECT k already requires k >= 1, and
        # a negative deadline or retry budget has no schedule to run on.
        for name, least in (("k", 1), ("deadline_ms", 0), ("retries", 0)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(
                    f"QueryOptions.{name} must be >= {least} (got {value!r})")

    @property
    def retry_budget(self) -> int:
        """The retries each lossy protocol step of this query may spend."""
        return DEFAULT_RETRIES if self.retries is None else self.retries
