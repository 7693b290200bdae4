"""Node reservations with timed release.

Query step 4 "reserves the node for the query"; step 5: "if the customer
decides not to take them, the locks on those reserved nodes will be
released after a short time window" (§III-D).  The table is lazy: expiry
is evaluated against the simulation clock on access, so no timer churn.

Lifecycle contract (checked at runtime by the reservation-hygiene
invariant in :mod:`repro.check`):

* a *reservation* (uncommitted hold) self-releases ``hold_ms`` after the
  last reserve;
* ``commit`` promotes it to a *lease* that lasts ``lease_ms``;
* a committed lease is never demoted back to a short-window reservation —
  in particular a duplicate reserve from the owning query (a retried
  anycast arriving after step 5 settled) is a no-op, not a demotion.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Simulator

#: Default reservation window before an uncommitted lock self-releases (ms).
DEFAULT_HOLD_MS = 2_000.0

#: Observer signature: ``watcher(table, event, query_id)`` with event one
#: of ``reserved`` / ``committed`` / ``released`` / ``hold_expired`` /
#: ``lease_expired``.  Watchers must only observe — never mutate the table.
ReservationWatcher = Callable[["ReservationTable", str, int], None]


class ReservationTable:
    """Reservation state for a single node."""

    def __init__(self, sim: Simulator, hold_ms: float = DEFAULT_HOLD_MS):
        self._sim = sim
        self.hold_ms = hold_ms
        self._holder: Optional[int] = None  # query id
        self._expires_at = 0.0
        self._committed = False
        self._lease_ends = 0.0
        #: Optional lifecycle observer (the invariant sanitizer).  None by
        #: default: the notify branch is a single ``is not None`` test, so
        #: an unwatched table behaves byte-identically to one with no hook.
        self.watcher: Optional[ReservationWatcher] = None

    def _notify(self, event: str, query_id: int) -> None:
        if self.watcher is not None:
            self.watcher(self, event, query_id)

    # ------------------------------------------------------------------
    def _gc(self) -> None:
        now = self._sim.now
        if self._committed and now >= self._lease_ends:
            expired = self._holder
            self._committed = False
            self._holder = None
            if expired is not None:
                self._notify("lease_expired", expired)
        if not self._committed and self._holder is not None and now >= self._expires_at:
            expired = self._holder
            self._holder = None
            self._notify("hold_expired", expired)

    def is_free(self) -> bool:
        self._gc()
        return self._holder is None

    def holder(self) -> Optional[int]:
        self._gc()
        return self._holder

    # ------------------------------------------------------------------
    def try_reserve(self, query_id: int) -> bool:
        """Reserve for ``query_id``; idempotent for the same query.

        A duplicate reserve on a lease already *committed* to the same
        query is a pure no-op: the lease keeps its ``lease_ms`` horizon.
        (Demoting it to an uncommitted hold — the historical behaviour —
        let a retried anycast that arrived after step 5 silently evict a
        committed customer once the short hold window lapsed.)
        """
        self._gc()
        if self._holder is not None and self._holder != query_id:
            return False
        if self._committed:
            # Same-query duplicate after commit: keep the lease untouched.
            return True
        self._holder = query_id
        self._committed = False
        self._expires_at = self._sim.now + self.hold_ms
        self._notify("reserved", query_id)
        return True

    def commit(self, query_id: int, lease_ms: float) -> bool:
        """Convert a reservation into a lease (the customer took the node)."""
        self._gc()
        if self._holder != query_id:
            return False
        self._committed = True
        self._lease_ends = self._sim.now + lease_ms
        self._notify("committed", query_id)
        return True

    def release(self, query_id: int) -> bool:
        """Explicitly drop a reservation or lease held by ``query_id``."""
        self._gc()
        if self._holder != query_id:
            return False
        self._holder = None
        self._committed = False
        self._notify("released", query_id)
        return True

    def release_uncommitted(self, query_id: int) -> bool:
        """Drop a reservation held by ``query_id`` unless it was committed.

        The orphan-release path uses this: a late ``site_result`` reply
        names nodes reserved by a timed-out attempt, but the *query* may
        have succeeded through a retry and committed some of those same
        nodes — a blanket release would revoke the customer's lease.
        """
        self._gc()
        if self._holder != query_id or self._committed:
            return False
        self._holder = None
        self._notify("released", query_id)
        return True

    @property
    def committed(self) -> bool:
        self._gc()
        return self._committed

    @property
    def expires_at(self) -> float:
        """Read-only expiry instant of the current uncommitted hold."""
        return self._expires_at
