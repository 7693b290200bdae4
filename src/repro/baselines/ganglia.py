"""A Ganglia-style centralized management hierarchy (paper §II-A, Fig. 3a).

Cluster nodes push their full state to a cluster master every period; the
central manager polls cluster masters; customers and admins all talk to the
central manager.  The design works — and that is the point of the ablation:
the manager's inbound bandwidth and query load grow with the whole
federation, while RBAY spreads the same work across the DHT.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

from repro.net.message import Message
from repro.net.network import Host, Network
from repro.net.site import Site
from repro.query.predicates import Predicate
from repro.sim.engine import Simulator
from repro.sim.futures import Future

_request_ids = itertools.count(1)


class GangliaNode(Host):
    """A monitored server: announces its full attribute map every period."""

    def __init__(self, site: Site, node_id: int):
        super().__init__(site)
        self.node_id = node_id
        self.attributes: Dict[str, Any] = {}
        self.master_address: Optional[int] = None

    def set_attribute(self, name: str, value: Any) -> None:
        self.attributes[name] = value

    def announce(self) -> None:
        """Ship the complete local state to the cluster master (no deltas —
        the centralized model of the paper ships snapshots)."""
        if self.master_address is None:
            return
        self.send(self.master_address, Message(kind="ganglia.announce", payload={
            "node_id": self.node_id,
            "attributes": dict(self.attributes),
        }))

    def on_message(self, msg: Message) -> None:  # pragma: no cover - leaf node
        pass


class ClusterMaster(Host):
    """Aggregates one cluster's snapshots; answers central-manager polls."""

    def __init__(self, site: Site):
        super().__init__(site)
        self.snapshot: Dict[int, Dict[str, Any]] = {}
        self.snapshot_time: Dict[int, float] = {}

    def on_message(self, msg: Message) -> None:
        """Fold announces into the snapshot; answer manager polls."""
        if msg.kind == "ganglia.announce":
            self.snapshot[msg.payload["node_id"]] = msg.payload["attributes"]
            self.snapshot_time[msg.payload["node_id"]] = self.network.sim.now
        elif msg.kind == "ganglia.poll":
            self.send(msg.src, Message(kind="ganglia.poll_reply", payload={
                "request_id": msg.payload["request_id"],
                "cluster": self.address,
                "snapshot": {nid: dict(attrs) for nid, attrs in self.snapshot.items()},
            }))


class CentralManager(Host):
    """The root: polls cluster masters, serves every query and admin op."""

    def __init__(self, site: Site, sim: Simulator):
        super().__init__(site)
        self.sim = sim
        self.cluster_masters: List[int] = []
        self.global_snapshot: Dict[int, Dict[str, Any]] = {}
        self.node_sites: Dict[int, str] = {}
        self.queries_served = 0
        self.policy_checks = 0
        #: Optional per-node policy functions the manager must evaluate
        #: centrally (the burden RBAY pushes to the edge).
        self.policies: Dict[int, Any] = {}

    # -- polling --------------------------------------------------------
    def poll_clusters(self) -> None:
        for address in self.cluster_masters:
            self.send(address, Message(kind="ganglia.poll", payload={
                "request_id": next(_request_ids),
            }))

    # -- serving --------------------------------------------------------
    def on_message(self, msg: Message) -> None:
        """Fold poll replies into the global snapshot; serve queries."""
        if msg.kind == "ganglia.poll_reply":
            self.global_snapshot.update(msg.payload["snapshot"])
        elif msg.kind == "ganglia.query":
            self._serve_query(msg)

    def _serve_query(self, msg: Message) -> None:
        self.queries_served += 1
        predicates = [Predicate.unpack(p) for p in msg.payload["predicates"]]
        k = msg.payload.get("k")
        payload = msg.payload.get("payload")
        sites = msg.payload.get("sites")
        matches: List[int] = []
        for node_id, attributes in self.global_snapshot.items():
            if sites is not None and self.node_sites.get(node_id) not in sites:
                continue
            if not all(
                p.attribute in attributes and p.matches(attributes[p.attribute])
                for p in predicates
            ):
                continue
            policy = self.policies.get(node_id)
            if policy is not None:
                self.policy_checks += 1
                if not policy(payload):
                    continue
            matches.append(node_id)
            if k is not None and len(matches) >= k:
                break
        self.send(msg.src, Message(kind="ganglia.query_reply", payload={
            "request_id": msg.payload["request_id"],
            "node_ids": matches,
        }))


class GangliaClient(Host):
    """A customer endpoint issuing queries against the central manager."""

    def __init__(self, site: Site, sim: Simulator):
        super().__init__(site)
        self.sim = sim
        self._pending: Dict[int, Future] = {}

    def query(
        self,
        manager_address: int,
        predicates: List[Predicate],
        k: Optional[int] = None,
        payload: Any = None,
        sites: Optional[List[str]] = None,
        timeout: Optional[float] = None,
    ) -> Future:
        """Ask the central manager for up to k matches; resolves to ids."""
        request_id = next(_request_ids)
        future = Future(self.sim, timeout=timeout)
        self._pending[request_id] = future
        self.send(manager_address, Message(kind="ganglia.query", payload={
            "request_id": request_id,
            "predicates": [p.pack() for p in predicates],
            "k": k,
            "payload": payload,
            "sites": sites,
        }))
        return future

    def on_message(self, msg: Message) -> None:
        """Resolve the pending future for a query reply."""
        if msg.kind == "ganglia.query_reply":
            future = self._pending.pop(msg.payload["request_id"], None)
            if future is not None:
                future.try_resolve(msg.payload["node_ids"])


class GangliaFederation:
    """Builder/facade mirroring :class:`repro.core.plane.RBay`'s shape."""

    def __init__(self, sim: Simulator, network: Network, manager_site: Site):
        self.sim = sim
        self.network = network
        self.manager = CentralManager(manager_site, sim)
        network.attach(self.manager)
        self.masters: Dict[int, ClusterMaster] = {}
        self.nodes: List[GangliaNode] = []
        self._announce_task = None
        self._poll_task = None

    def add_cluster(self, site: Site, node_ids: List[int]) -> ClusterMaster:
        """Create a cluster master plus its monitored nodes at ``site``."""
        master = ClusterMaster(site)
        self.network.attach(master)
        self.masters[site.index] = master
        self.manager.cluster_masters.append(master.address)
        for node_id in node_ids:
            node = GangliaNode(site, node_id)
            self.network.attach(node)
            node.master_address = master.address
            self.nodes.append(node)
            self.manager.node_sites[node_id] = site.name
        return master

    def start(self, announce_interval_ms: float = 1_000.0,
              poll_interval_ms: float = 1_000.0) -> None:
        """Begin periodic announce and poll cycles."""
        self._announce_task = self.sim.schedule_periodic(
            announce_interval_ms, self._announce_all
        )
        self._poll_task = self.sim.schedule_periodic(
            poll_interval_ms, self.manager.poll_clusters
        )

    def stop(self) -> None:
        for task in (self._announce_task, self._poll_task):
            if task is not None:
                task.stop()
        self._announce_task = self._poll_task = None

    def _announce_all(self) -> None:
        for node in self.nodes:
            node.announce()

    def make_client(self, site: Site) -> GangliaClient:
        client = GangliaClient(site, self.sim)
        self.network.attach(client)
        return client

    def manager_inbound_bytes(self) -> int:
        return self.network.per_host_bytes_in[self.manager.address]
