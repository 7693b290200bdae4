"""The RBay facade: build, federate, and operate the information plane.

One :class:`RBay` object owns the simulator, the network, the Pastry
overlay of :class:`RBayNode` servers, the Scribe/query applications wired
onto every node, the per-site admins, and the customers.  Everything a
downstream user needs is reachable from here; the examples and benchmarks
construct nothing else by hand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.core.admin import SiteAdmin
from repro.core.client import Customer
from repro.core.monitor import SyntheticMonitor
from repro.core.naming import AttributeHierarchy
from repro.ext.churn import ChurnTracker
from repro.faults.injector import FaultInjector
from repro.core.node import RBayNode
from repro.net.latency import (
    LatencyModel,
    SyntheticLatencyModel,
    TableIILatencyModel,
    make_ec2_registry,
)
from repro.net.network import Network
from repro.net.site import Site, SiteRegistry
from repro.obs import Observability
from repro.pastry.nodeid import NodeId
from repro.pastry.overlay import Overlay
from repro.query.admission import AdmissionController
from repro.query.executor import QueryApplication, _QueryContext
from repro.query.options import QueryOptions
from repro.query.result import QueryResult
from repro.query.sql import parse_query
from repro.scribe.scribe import ScribeApplication
from repro.sim import EngineProtocol
from repro.sim.engine import Simulator
from repro.sim.futures import Future
from repro.sim.random_streams import RandomStreams

if TYPE_CHECKING:  # annotation only: not imported unless a caller enables it
    from repro.scribe.rebalance import RebalanceConfig


@dataclass
class RBayConfig:
    """Construction parameters for a federation.

    Defaults reproduce the paper's testbed shape: the eight EC2 sites of
    Table II with jittered latencies.  Site trees are always site-scoped
    (administrative isolation, §III-E), and how a query runs — planner,
    retry budget — is its own :class:`~repro.query.options.QueryOptions`.
    """

    seed: int = 0
    nodes_per_site: int = 20
    #: None → the paper's eight EC2 sites; an int → that many synthetic sites.
    synthetic_sites: Optional[int] = None
    jitter: bool = True
    maintenance_interval_ms: float = 2_000.0
    reservation_hold_ms: float = 2_000.0
    lease_ms: float = 60_000.0
    #: Receiver-side processing delay per message (ms).  0 = pure network
    #: latency; ~1-2 ms approximates the paper's shared-VM JVM costs.
    processing_delay_ms: float = 0.0
    #: Optional :class:`repro.faults.FaultSchedule` installed at build
    #: time; the injector is reachable as ``plane.fault_injector``.
    fault_schedule: Optional[Any] = None
    #: Enable the causal observability plane: span tracing through every
    #: protocol hot path plus the per-step latency histograms.  Off by
    #: default — the disabled emit path is a single branch and allocates
    #: nothing, so simulated behaviour is identical either way.
    tracing: bool = False
    #: Debounce window (ms) for aggregation roll-ups: a burst of leaf
    #: updates produces one batched parent update per interval per node
    #: instead of one message per change.
    agg_flush_ms: float = 50.0
    #: Bound on concurrently admitted queries through the facade; further
    #: submissions wait FIFO in the admission queue.
    query_window: int = 64
    #: Attach the runtime invariant sanitizer (:mod:`repro.check`) at
    #: build time.  Off by default: with it off nothing is installed and
    #: runs are byte-identical to a sanitizer-free build; with it on the
    #: checks are purely observational, so traces stay identical too.
    sanitize: bool = False
    #: Events between periodic sanitizer sweeps (0 disables sweeps,
    #: keeping only quiescent / post-query / post-fault checks).
    sanitize_sweep_events: int = 5_000
    #: Raise :class:`repro.check.InvariantViolationError` at the first
    #: violation instead of collecting into the report.
    sanitize_fail_fast: bool = False
    #: Load-triggered hot-tree balancing (docs/architecture.md §15): a
    #: :class:`repro.scribe.rebalance.RebalanceConfig` turns it on — roots
    #: whose per-window message load stays hot spawn replicas and
    #: re-partition their children across them; replicas serve diverted
    #: reads from a root-coherent snapshot and are demoted when load
    #: subsides.  ``None`` (the default) leaves the replication protocol
    #: inert and the wire behaviour byte-identical.
    rebalance: Optional[RebalanceConfig] = None
    #: Message transport backing the plane: ``"sim"`` (the DES network —
    #: deterministic, the validation oracle) or ``"asyncio"`` (every node
    #: a real TCP endpoint on a wall-clock scheduler; see
    #: docs/architecture.md §16).  The protocol stack is identical on
    #: both; only scheduling and delivery differ.
    transport: str = "sim"
    #: Sim-only codec shadow mode: round-trip every delivered message
    #: through the versioned wire codec and hand receivers the decoded
    #: copy, turning every deterministic run into a wire-safety lint.
    wire_check: bool = False
    #: Live-only clock compression: wall milliseconds per virtual
    #: millisecond.  ``0.05`` runs the paper's multi-second protocol
    #: timeouts 20× faster without touching any timeout constant.
    time_scale: float = 1.0
    #: Live-only: interface the per-node TCP servers bind.
    live_bind_host: str = "127.0.0.1"
    #: Live-only: reconnect attempts (with linear backoff) before a frame
    #: is written off as dropped and the sender's protocol timeouts kick in.
    connect_retries: int = 3
    #: Live-only: a :class:`repro.transport.serve.PeerPlan` partitioning
    #: the federation's sites across OS processes (``rbay serve``).
    #: ``None`` serves every host in-process.
    transport_peers: Optional[Any] = None


class RBay:
    """A federated information plane over simulated geo-distributed sites."""

    def __init__(self, config: Optional[RBayConfig] = None):
        self.config = config if config is not None else RBayConfig()
        cfg = self.config
        self.streams = RandomStreams(cfg.seed)
        self.registry = self._make_registry(cfg)
        self.latency = self._make_latency(cfg)
        #: The scheduling engine everything runs on.  Typed against the
        #: structural :class:`~repro.sim.EngineProtocol`: the plane never
        #: relies on anything outside that contract, which is what lets the
        #: DES Simulator and the wall-clock RealtimeScheduler interchange.
        self.sim: EngineProtocol
        if cfg.transport == "sim":
            self.sim = Simulator()
            self.network = Network(
                self.sim,
                self.latency,
                processing_ms=cfg.processing_delay_ms,
                wire_check=cfg.wire_check,
            )
        elif cfg.transport == "asyncio":
            from repro.transport.asyncio_transport import AsyncioTransport
            from repro.transport.realtime import RealtimeScheduler

            self.sim = RealtimeScheduler(time_scale=cfg.time_scale)
            self.network = AsyncioTransport(
                self.sim,
                self.latency,
                bind_host=cfg.live_bind_host,
                processing_ms=cfg.processing_delay_ms,
                connect_retries=cfg.connect_retries,
                peer_plan=cfg.transport_peers,
            )
        else:
            raise ValueError(f"unknown transport {cfg.transport!r} "
                             f"(expected 'sim' or 'asyncio')")
        self.hierarchy = AttributeHierarchy()
        #: The one telemetry handle every component takes: span recorder
        #: (disabled when ``cfg.tracing`` is off) + the metrics registry.
        self.obs = Observability(self.sim, enabled=cfg.tracing)
        #: Federation-wide memo/protocol counters (hit/miss/invalidation):
        #: the flat face of ``self.obs.metrics``.
        self.counters = self.obs.metrics
        self.network.recorder = self.obs.recorder
        self.context = _QueryContext(
            self.sim,
            [site.name for site in self.registry],
            hierarchy=self.hierarchy,
            lease_ms=cfg.lease_ms,
            retry_rng=self.streams.stream("query-retry"),
        )
        #: Bounded in-flight window every facade query is admitted through.
        self.admission = AdmissionController(self.sim, window=cfg.query_window,
                                             obs=self.obs)
        self.overlay = Overlay(
            self.sim,
            self.network,
            self.streams,
            self.registry,
            isolation=True,
            node_factory=self._make_node,
        )
        self.admins: Dict[str, SiteAdmin] = {}
        self.customers: List[Customer] = []
        self.monitor = SyntheticMonitor(self.sim, self.streams.stream("monitor"))
        self.churn = ChurnTracker(self.sim)
        #: Set by :meth:`install_faults` (or at build time when the config
        #: carries a ``fault_schedule``).
        self.fault_injector: Optional["FaultInjector"] = None
        #: Set at build time when ``cfg.sanitize`` is on (see
        #: :mod:`repro.check`); None otherwise — zero-cost when off.
        self.sanitizer: Optional[Any] = None
        self._built = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make_registry(cfg: RBayConfig) -> SiteRegistry:
        if cfg.synthetic_sites is None:
            return make_ec2_registry()
        registry = SiteRegistry()
        for i in range(cfg.synthetic_sites):
            registry.add(f"Site{i:03d}", "Synthetic")
        return registry

    def _make_latency(self, cfg: RBayConfig) -> LatencyModel:
        jitter_rng = self.streams.stream("latency-jitter") if cfg.jitter else None
        if cfg.synthetic_sites is None:
            return TableIILatencyModel(rng=jitter_rng)
        # Same stable-region jitter CV as the Table II model's default.
        return SyntheticLatencyModel(cfg.synthetic_sites, rng=jitter_rng,
                                     jitter_cv=0.05)

    def _make_node(self, node_id: NodeId, site: Site) -> RBayNode:
        return RBayNode(node_id, site, self.sim,
                        reservation_hold_ms=self.config.reservation_hold_ms)

    def build(self, nodes_per_site: Optional[int] = None) -> "RBay":
        """Create the node population, bootstrap routing, wire applications."""
        if self._built:
            raise RuntimeError("plane already built")
        per_site = nodes_per_site if nodes_per_site is not None else self.config.nodes_per_site
        self.overlay.create_population(per_site)
        self.overlay.bootstrap()
        for node in self.overlay.nodes:
            self._wire_node(node)
        for site in self.registry:
            members = [n for n in self.nodes if n.site.index == site.index]
            self.admins[site.name] = SiteAdmin(site, members)
            gateway_refs = self.overlay.gateways.get(site.index, [])
            if gateway_refs:
                self.context.set_gateway(site.name, gateway_refs[0].address)
        self._built = True
        if self.config.sanitize:
            from repro.check.sanitizer import Sanitizer

            self.sanitizer = Sanitizer(
                self,
                sweep_events=self.config.sanitize_sweep_events,
                fail_fast=self.config.sanitize_fail_fast,
            ).attach()
        if self.config.fault_schedule is not None:
            self.install_faults(self.config.fault_schedule)
        return self

    def install_faults(self, schedule: Optional[Any] = None) -> FaultInjector:
        """Hook a fault injector to the plane (optionally with a script).

        Safe to call once; later calls load additional schedules into the
        same injector.
        """
        if self.fault_injector is None:
            self.fault_injector = FaultInjector(
                self.sim,
                self.network,
                self.nodes,
                rng=self.streams.stream("faults"),
                churn=self.churn,
                obs=self.obs,
            )
            self.fault_injector.install(schedule)
            if self.sanitizer is not None:
                self.sanitizer.watch_injector(self.fault_injector)
        elif schedule is not None:
            self.fault_injector.load(schedule)
        return self.fault_injector

    def _wire_node(self, node: RBayNode) -> None:
        scribe = ScribeApplication(self.sim,
                                   agg_flush_ms=self.config.agg_flush_ms,
                                   obs=self.obs,
                                   rebalance=self.config.rebalance)
        query_app = QueryApplication(self.context, obs=self.obs)
        node.recorder = self.obs.recorder
        node.register_app(scribe)
        node.register_app(query_app)
        scribe.anycast_visitor = query_app.visit
        scribe.multicast_handler = SiteAdmin.apply_admin_command

    def add_node(self, site: Site, join_via: Optional[RBayNode] = None) -> RBayNode:
        """Dynamically add a node (protocol join when ``join_via`` given)."""
        node = self.overlay.create_node(site)
        self._wire_node(node)
        for attribute in self.context.bucket_index.attributes():
            self.subscribe_bucketed(node, self.context.bucket_index.spec_for(attribute))
        if self.sanitizer is not None:
            self.sanitizer.watch_node(node)
        if join_via is not None:
            self.overlay.join(node, join_via)
        return node

    # ------------------------------------------------------------------
    # Bucketed range indices
    # ------------------------------------------------------------------
    def register_buckets(self, attribute: str, lo: float, hi: float,
                         buckets: int = 8) -> "BucketSpec":
        """Range-partition ``attribute`` into ``buckets`` even value ranges.

        Every existing node subscribes to the bucket containing its
        current value (one Scribe tree per bucket, with the usual count
        roll-up) and re-buckets eagerly when the value crosses a
        boundary; nodes added later are subscribed automatically.  Range
        predicates and GROUP BY on the attribute are then routed by the
        query plan (:mod:`repro.query.plan`) to the buckets they overlap.
        Registering the same partition twice is a no-op; a conflicting
        partition raises.
        """
        from repro.scribe.buckets import BucketSpec

        spec = self.context.bucket_index.register(
            BucketSpec(attribute, float(lo), float(hi), int(buckets)))
        for node in self.nodes:
            self.subscribe_bucketed(node, spec)
        return spec

    def subscribe_bucketed(self, node: RBayNode, spec: "BucketSpec") -> None:
        """Install one eager membership rule per bucket on ``node``."""
        from repro.core.naming import site_tree
        from repro.core.node import SubscriptionSpec

        for bucket in spec.buckets:
            node.subscribe(SubscriptionSpec(
                topic=site_tree(node.site.name, bucket.tree),
                attribute=spec.attribute,
                default_predicate=(lambda value, b=bucket: b.contains(value)),
                eager=True,
            ))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[RBayNode]:
        return self.overlay.nodes  # type: ignore[return-value]

    def site_nodes(self, site_name: str) -> List[RBayNode]:
        site = self.registry.by_name(site_name)
        return [n for n in self.nodes if n.site.index == site.index]

    def admin(self, site_name: str) -> SiteAdmin:
        return self.admins[site_name]

    def make_customer(
        self,
        name: str,
        site_name: str,
        home: Optional[RBayNode] = None,
        **kwargs: Any,
    ) -> Customer:
        """Create a customer whose query interface lives in ``site_name``."""
        if home is None:
            candidates = self.site_nodes(site_name)
            if not candidates:
                raise ValueError(f"no nodes at site {site_name}")
            home = self.streams.stream("customers").choice(candidates)
        customer = Customer(name, home, self.streams.stream(f"customer-{name}"), **kwargs)
        self.customers.append(customer)
        return customer

    # ------------------------------------------------------------------
    # Stable query facade
    # ------------------------------------------------------------------
    def _facade_home(self, options: QueryOptions) -> RBayNode:
        """The query-interface node a facade call coordinates from."""
        if not self._built:
            raise RuntimeError("plane not built yet: call build() first")
        site_name = options.origin
        if site_name is None:
            site_name = next(iter(self.registry)).name
        candidates = self.site_nodes(site_name)
        if not candidates:
            raise ValueError(f"no nodes at site {site_name}")
        return candidates[0]

    def submit(self, sql: str, *, options: Optional[QueryOptions] = None) -> Any:
        """Admit ``sql`` through the bounded in-flight window.

        Returns a :class:`~repro.sim.futures.Future` resolving to a
        :class:`~repro.query.result.QueryResult` (or a typed
        :class:`~repro.query.errors.QueryError`).  At most
        ``config.query_window`` facade queries execute concurrently; the
        rest wait FIFO, each with fully isolated per-query state.
        """
        opts = options if options is not None else QueryOptions()
        home = self._facade_home(opts)
        query = parse_query(sql)
        app: QueryApplication = home.apps["query"]
        return self.admission.submit(lambda: app.execute(home, query, opts))

    def query(self, sql: str, *,
              options: Optional[QueryOptions] = None) -> QueryResult:
        """Run ``sql`` to completion and return its frozen result.

        The synchronous member of the stable facade: drives the simulator
        until the admitted query resolves.  Raises the typed
        :class:`~repro.query.errors.QueryError` if the query fails instead
        of returning a (possibly ``degraded``) result.
        """
        future: Future = self.submit(sql, options=options)
        return future.result()

    # ------------------------------------------------------------------
    # Operation helpers
    # ------------------------------------------------------------------
    def start_maintenance(self) -> None:
        """Kick off every node's periodic onTimer cycle, de-synchronized."""
        rng = self.streams.stream("maintenance-jitter")
        interval = self.config.maintenance_interval_ms
        for node in self.nodes:
            node.start_maintenance(
                interval, jitter_fn=lambda rng=rng: rng.uniform(-0.1, 0.1) * interval
            )

    def stop_maintenance(self) -> None:
        for node in self.nodes:
            node.stop_maintenance()

    def settle(self, duration_ms: float = 1_000.0) -> None:
        """Run the simulator forward to let joins/aggregates propagate."""
        self.sim.run(until=self.sim.now + duration_ms)

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def close(self) -> None:
        """Release transport resources (sockets, event loop) if any.

        A cheap no-op for the DES backend; required teardown for the
        asyncio backend.  Safe to call repeatedly.
        """
        self.network.close()
        self.sim.close()

    # ------------------------------------------------------------------
    # Convenience for experiments
    # ------------------------------------------------------------------
    def random_node(self, rng: Optional[random.Random] = None,
                    site_name: Optional[str] = None) -> RBayNode:
        rng = rng if rng is not None else self.streams.stream("random-node")
        pool = self.nodes if site_name is None else self.site_nodes(site_name)
        return rng.choice(pool)

    def tree_size(self, topic: str, via: Optional[RBayNode] = None) -> int:
        """Member count of the site tree ``topic`` (``"<site>/<tree>"``),
        asked through ``via`` — by default a node of the named site."""
        node = via if via is not None else self.site_nodes(topic.split("/", 1)[0])[0]
        return node.scribe.tree_size(node, topic, scope="site").result()
