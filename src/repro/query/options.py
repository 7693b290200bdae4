"""Per-query execution options for the stable public API.

:class:`QueryOptions` is the one keyword-only, frozen bundle of execution
knobs (payload, caller, deadline, retry budget, LIMIT, ...), so the
public signature — ``RBay.query(sql, *, options=QueryOptions(...))`` —
never has to change when a new knob is added.  It is the only way to
pass them: :meth:`repro.query.executor.QueryApplication.execute` takes
no per-knob keywords.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional


@dataclass(frozen=True, kw_only=True)
class QueryOptions:
    """Keyword-only bundle of per-query execution knobs.

    All fields default to "inherit the plane's configuration", so
    ``QueryOptions()`` is always a valid argument.

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
        Per-step retry budget override (probe round, anycast, remote site
        request).  ``None`` uses the plane's ``site_retries`` config; 0
        disables retries for this query only.
    k:
        Override of the query's LIMIT — takes precedence over the ``k``
        parsed from the SQL text.
    origin:
        Site name whose query interface should coordinate the query (the
        facade picks a gateway node there).  ``None`` uses the first site
        in the federation registry.
    planner:
        Per-query override of the range planner.  ``None``
        inherits the plane's ``planner`` config; ``False`` forces the
        bucket-unaware baseline (probe and search the whole bucket family
        with strict checks) — the planner-off ablation arm.
    """

    payload: Optional[Dict[str, Any]] = None
    caller: Optional[str] = None
    deadline_ms: Optional[float] = None
    retries: Optional[int] = None
    k: Optional[int] = None
    origin: Optional[str] = None
    planner: Optional[bool] = None
