"""Process-per-node-group deployment for the asyncio transport.

``rbay serve`` runs one OS process per *site group*: every process
builds the **same** deterministic plane from the shared seed (so node
ids, addresses, gateways, and tree roots agree everywhere without any
coordination service), but each process *owns* only the sites listed in
its ``--own`` argument.  Owned hosts bind real TCP servers at ports
computed from the :class:`PeerPlan`; all other hosts are inert shadows —
their sends are suppressed by the transport, so each workload action is
performed for real by exactly one process, and frames addressed to a
shadow route to the owner's planned endpoint.

The peer plan is a small JSON document shared by all processes::

    {"sites": {"SiteA": {"host": "127.0.0.1", "port_base": 42000},
               "SiteB": {"host": "127.0.0.1", "port_base": 42100}}}

A served node is addressed at ``port_base + k`` where ``k`` is the
node's attach-order index within its site — deterministic under the
shared seed, so every process computes identical endpoints.
"""

from __future__ import annotations

import json
import socket
import sys
import time
from typing import Dict, Iterable, Mapping, Optional, Tuple


class PeerPlanError(ValueError):
    """A malformed or inconsistent peer plan."""


class PeerPlan:
    """Site → endpoint arithmetic shared by every ``serve`` process."""

    def __init__(self, sites: Mapping[str, Mapping[str, object]],
                 owned: Iterable[str] = ()):
        self.sites: Dict[str, Tuple[str, int]] = {}
        for name, entry in sites.items():
            try:
                self.sites[name] = (str(entry["host"]), int(entry["port_base"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise PeerPlanError(
                    f"peer plan entry for {name!r} needs host/port_base: {exc}"
                ) from None
        self.owned = frozenset(owned)
        unknown = self.owned - set(self.sites)
        if unknown:
            raise PeerPlanError(f"owned sites not in the plan: {sorted(unknown)}")

    def endpoint(self, site_name: str, index: int) -> Tuple[str, int]:
        """TCP endpoint of node ``index`` (attach order) of ``site_name``."""
        try:
            host, port_base = self.sites[site_name]
        except KeyError:
            raise PeerPlanError(f"site {site_name!r} not in the peer plan") from None
        return host, port_base + index

    # ------------------------------------------------------------------
    @classmethod
    def from_json(cls, text: str, owned: Iterable[str] = ()) -> "PeerPlan":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PeerPlanError(f"peer plan is not valid JSON: {exc}") from None
        if not isinstance(doc, dict) or not isinstance(doc.get("sites"), dict):
            raise PeerPlanError('peer plan must be {"sites": {...}}')
        return cls(doc["sites"], owned)

    @classmethod
    def load(cls, path: str, owned: Iterable[str] = ()) -> "PeerPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read(), owned)

    @staticmethod
    def default_document(site_names: Iterable[str], host: str = "127.0.0.1",
                         port_base: int = 42000, stride: int = 100) -> dict:
        """A ready-to-dump plan: each site gets a ``stride``-wide port band."""
        return {"sites": {name: {"host": host, "port_base": port_base + i * stride}
                          for i, name in enumerate(site_names)}}


def wait_for_peers(plan: PeerPlan, timeout_s: float = 30.0) -> None:
    """Block until node 0 of every non-owned site accepts connections.

    The two-phase startup barrier: every process binds its own servers
    first, then waits here (polling every 0.1 s), so no workload action
    races a peer that has not bound yet.
    """
    poll_s = 0.1
    deadline = time.monotonic() + timeout_s
    remaining = [name for name in plan.sites if name not in plan.owned]
    while remaining:
        still_down = []
        for name in remaining:
            host, port = plan.endpoint(name, 0)
            try:
                socket.create_connection((host, port), timeout=poll_s).close()
            except OSError:
                still_down.append(name)
        remaining = still_down
        if remaining and time.monotonic() > deadline:
            raise TimeoutError(f"peers never came up: {remaining}")
        if remaining:
            time.sleep(poll_s)


def run_serve(
    config,
    plan: PeerPlan,
    duration_s: float = 10.0,
    settle_ms: float = 2_000.0,
    query: Optional[str] = None,
    query_origin: Optional[str] = None,
    password: str = "rbay",
    peer_timeout_s: float = 30.0,
    out=None,
) -> int:
    """Drive one ``serve`` process end to end; returns an exit code.

    ``config`` must already carry ``transport="asyncio"`` and
    ``transport_peers=plan``.  Every process applies the same
    deterministic evaluation workload — the transport's shadow
    suppression makes each action real exactly once.  Emits
    machine-parseable lines on ``out`` (default stdout): ``READY``, then
    per-query ``RESULT {json}``, then ``DONE {json}`` with the
    transport's traffic counters.
    """
    from repro.core.plane import RBay
    from repro.query.options import QueryOptions
    from repro.workloads.generator import FederationWorkload, WorkloadSpec

    out = out if out is not None else sys.stdout
    plane = RBay(config).build()
    try:
        print(f"READY owned={','.join(sorted(plan.owned))} "
              f"hosts={plane.network.host_count}", file=out, flush=True)
        wait_for_peers(plan, timeout_s=peer_timeout_s)
        FederationWorkload(plane, WorkloadSpec(password=password)).apply()
        plane.start_maintenance()
        plane.settle(settle_ms)
        if query is not None:
            origin = query_origin or sorted(plan.owned)[0]
            result = plane.query(query, options=QueryOptions(
                origin=origin, payload={"password": password}))
            print("RESULT " + json.dumps({
                "satisfied": result.satisfied,
                "requested": result.requested,
                "entries": len(result.entries),
                "degraded": result.degraded,
                "sites_answered": result.sites_answered,
            }, sort_keys=True), file=out, flush=True)
        if duration_s > 0:
            plane.sim.serve(duration_s)
        net = plane.network
        print("DONE " + json.dumps({
            "sent": net.messages_sent,
            "delivered": net.messages_delivered,
            "dropped": net.messages_dropped,
            "suppressed": net.messages_suppressed,
            "wire_bytes": net.wire_bytes_sent,
        }, sort_keys=True), file=out, flush=True)
        return 0
    finally:
        plane.close()
