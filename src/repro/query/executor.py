"""The five-step query protocol (paper §III-D, Figure 7) plus federation.

Per site the executor (1) sends size probes to the roots of each candidate
tree, (2) collects the sizes, (3) anycasts a k-entry buffer into the
smallest tree, (4) lets every visited member run predicate checks and its
AA ``onGet`` authorization, reserving accepted nodes, and (5) returns the
filled buffer to the query interface, which commits the chosen nodes and
releases the rest.

For multi-site queries the interface fans out to each target site's
boundary router ("gateway", §III-E) in parallel; the user-observed latency
is therefore the RTT to the most remote site plus that site's local query
time — exactly the structure the paper uses to explain Figure 10.
"""

from __future__ import annotations

import itertools
import random
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.net.message import Message

if TYPE_CHECKING:  # avoid the core <-> query.executor import cycle
    from repro.core.naming import AttributeHierarchy
    from repro.core.node import RBayNode
from repro.obs import Observability
from repro.pastry.node import Application
from repro.query.backoff import RetryStep
from repro.query.errors import QueryTimeout
from repro.query.options import QueryOptions
from repro.query.predicates import Predicate
from repro.query.result import QueryResult
from repro.query.sql import Query
from repro.scribe.buckets import BucketIndex
from repro.sim.engine import Simulator
from repro.sim.futures import Future, FutureTimeout, RequestTable, gather

_query_ids = itertools.count(1)
_request_ids = itertools.count(1)

#: Cap used for "SELECT *" queries so anycast buffers stay bounded.
UNBOUNDED_K = 1_000_000


def _lost(value: Any) -> bool:
    """A step's future resolved without an answer (timed out / dropped)."""
    return isinstance(value, FutureTimeout) or value is None


def _site_result(entries=None, tree_sizes=None, visited: int = 0,
                 retries: int = 0) -> Dict[str, Any]:
    """One site's (or one DNF branch's) contribution; empty by default.
    ``retries`` is non-zero only on a result that came back over the
    wire: locally, retries are tallied on the :class:`_SiteRequest`."""
    return {"entries": [] if entries is None else entries,
            "tree_sizes": {} if tree_sizes is None else tree_sizes,
            "visited": visited, "retries": retries}


@dataclass
class _SiteRequest:
    """One query as a site is asked it: the parsed query, the caller's
    options, and the id its reservations are keyed by.  Built once by the
    coordinator (and rebuilt from the wire by a remote gateway), handed
    down the site executor whole, and the only source of the
    ``site_query`` payload."""

    query_id: int
    query: Query
    options: QueryOptions
    #: Protocol-step retries this node spent serving the request
    #: (:class:`~repro.query.backoff.RetryStep` counts them here).
    retries_spent: int = 0

    def pack(self, request_id: int, origin: int) -> Dict[str, Any]:
        """The ``site_query`` wire payload for one attempt."""
        query, options = self.query, self.options
        return {
            "request_id": request_id,
            "query_id": self.query_id,
            "k": query.k,
            "where": [[p.pack() for p in conjunction]
                      for conjunction in query.where],
            "order_by": query.order_by,
            "group_by": query.group_by,
            "payload": options.payload,
            "caller": options.caller,
            "origin": origin,
            "retries": options.retries,
            "planner": options.planner,
        }

    @classmethod
    def unpack(cls, data: Dict[str, Any]) -> "_SiteRequest":
        """Rebuild the request at the gateway that received ``data``."""
        where = [[Predicate.unpack(p) for p in conjunction]
                 for conjunction in data["where"]]
        return cls(data["query_id"],
                   Query(k=data["k"], where=where,
                         order_by=data.get("order_by"),
                         group_by=data.get("group_by")),
                   QueryOptions(payload=data.get("payload"),
                                caller=data.get("caller"),
                                retries=data.get("retries"),
                                planner=data.get("planner", True)))


class _QueryContext:
    """Federation-wide knowledge shared by every query interface.

    Holds what the paper distributes out-of-band: the site list, each
    site's boundary routers, and the hybrid naming catalog.

    Internal plumbing: the plane builds exactly one and wires it
    everywhere.  Go through :class:`repro.core.plane.RBay` and its
    ``query``/``submit`` facade.
    """

    def __init__(
        self,
        sim: Simulator,
        site_names: List[str],
        hierarchy: Optional["AttributeHierarchy"] = None,
        lease_ms: float = 60_000.0,
        retry_rng: Optional[random.Random] = None,
    ):
        from repro.core.naming import AttributeHierarchy  # lazy: avoids cycle

        self.sim = sim
        self.site_names = list(site_names)
        self.hierarchy = hierarchy if hierarchy is not None else AttributeHierarchy()
        self.gateways: Dict[str, int] = {}  # site name -> gateway address
        self.lease_ms = lease_ms
        #: Per-site and per-probe reply timeouts; fault harnesses shorten
        #: them on a built plane.
        self.site_timeout_ms = 10_000.0
        self.probe_timeout_ms = 5_000.0
        self.retry_slot_ms = 50.0
        self.retry_rng = retry_rng if retry_rng is not None else random.Random(0)
        #: Query ids currently between ``execute()`` and settlement —
        #: the "in-flight query" ground truth the reservation-hygiene
        #: invariant checks held reservations against.
        self.active_query_ids: set = set()
        #: Observers called once per query at settlement with
        #: ``(frozen_result, committed_count)``; the invariant sanitizer
        #: subscribes here.  Empty by default (zero-cost when unused).
        self.result_listeners: List[Any] = []
        #: Registry of range-partitioned (bucketed) attributes; range
        #: predicates on registered attributes are routed by the plan
        #: (:mod:`repro.query.plan`) to the buckets they overlap instead
        #: of the ``direct`` one-tree-per-predicate route.
        self.bucket_index = BucketIndex()

    def set_gateway(self, site_name: str, address: int) -> None:
        self.gateways[site_name] = address

    def deadline_for(self, retries: int) -> float:
        """Overall fan-out deadline: room for every retry round to finish."""
        budget_rounds = retries + 1
        budget = self.site_timeout_ms * budget_rounds
        slack = self.retry_slot_ms * (1 << min(budget_rounds, 8))
        return budget + slack

    def candidate_trees(self, predicate: Predicate) -> List[str]:
        """Tree names to search for one predicate (hybrid expansion)."""
        from repro.core.naming import predicate_tree_name  # lazy: avoids cycle

        base = predicate_tree_name(predicate.attribute, predicate.op, predicate.value)
        if self.hierarchy.is_known(base):
            return self.hierarchy.expand(base)
        return [base]


class QueryApplication(Application):
    """Per-node query machinery: coordinator, site executor, lock control."""

    name = "query"

    def __init__(self, context: _QueryContext,
                 obs: Optional[Observability] = None):
        self.context = context
        #: Remote ``site_query`` attempts awaiting their ``site_result``.
        self.requests = RequestTable(_request_ids)
        #: Request ids whose ``site_result`` was accepted -> when, oldest
        #: first: a duplicate of such a reply is not an orphan.
        self._accepted: "OrderedDict[int, float]" = OrderedDict()
        #: Causal observability plane (tracing off by default): spans for
        #: every protocol step, the per-step latency histogram, and the
        #: metrics registry every ``query.*`` counter lands in.
        self.obs = obs if obs is not None else Observability()
        #: Direct-message dispatch: wire kind -> ``handler(node, data, origin)``.
        self.direct_handlers = {
            "site_query": self._on_site_query,
            "site_result": self._on_site_result,
            "commit": self._on_commit,
            "release": self._on_release,
        }

    # ------------------------------------------------------------------
    # Coordinator (the "query interface" near the customer)
    # ------------------------------------------------------------------
    def execute(
        self,
        node: "RBayNode",
        query: Query,
        options: Optional[QueryOptions] = None,
    ) -> Future:
        """Run ``query`` from ``node``; resolves to a :class:`QueryResult`.

        Execution knobs travel in ``options`` (a frozen
        :class:`~repro.query.options.QueryOptions`).

        Failure contract: the future resolves to a QueryResult — possibly
        ``degraded=True`` with the unreachable sites listed — or, when the
        caller's deadline elapses first, to a typed :class:`QueryTimeout`.
        It never resolves to a raw FutureTimeout, and reservations taken by
        any site are settled (committed or released) on every path,
        including late answers that arrive after the query concluded.
        """
        opts = options if options is not None else QueryOptions()
        if opts.k is not None:
            query = replace(query, k=opts.k)
        sim = self.context.sim
        query_id = next(_query_ids)
        request = _SiteRequest(query_id, query, opts)
        started_at = sim.now
        target_sites = query.sites if query.sites is not None else self.context.site_names
        # ``done`` first: a query that cannot start leaves no id behind.
        done = Future(sim, timeout=opts.deadline_ms,
                      timeout_value=lambda: QueryTimeout(
                          query_id, opts.deadline_ms))
        self.context.active_query_ids.add(query_id)

        rec = self.obs.recorder
        root_span = None
        if rec.enabled:
            root_span = rec.start(
                "query", category="query", new_trace=True, step="coordinate",
                site=node.site.name, addr=node.address, query_id=query_id)

        site_futures: List[Future] = []
        fanned_out: List[str] = []
        answered: List[str] = []
        # FROM names with no gateway: nothing is sent, and the result
        # reports them failed (an unknown site is not an empty one).
        unreachable: List[str] = []
        with rec.use(root_span):
            for site_name in target_sites:
                if site_name == node.site.name:
                    future = self._site_query_dnf(node, request)
                else:
                    gateway = self.context.gateways.get(site_name)
                    if gateway is None:
                        unreachable.append(site_name)
                        continue
                    future = self._ask_remote_site(
                        node, gateway, request, site_name,
                        None if root_span is None else root_span.ctx)

                def _note_answer(value: Any, site_name: str = site_name) -> None:
                    if not _lost(value):
                        answered.append(site_name)

                future.add_callback(_note_answer)
                site_futures.append(future)
                fanned_out.append(site_name)

        def _merge(site_results: Any) -> None:
            if isinstance(site_results, FutureTimeout):
                site_results = [FutureTimeout()] * len(site_futures)
            entries: List[Dict[str, Any]] = []
            failed_sites: List[str] = list(unreachable)
            tree_sizes: Dict[str, int] = {}
            visited = 0
            # Retries spent here (remote requests, the local site's steps)
            # plus what each remote site reports spending on its side.
            retries = request.retries_spent
            for site_name, site_result in zip(fanned_out, site_results):
                if _lost(site_result):
                    failed_sites.append(site_name)
                    continue
                entries.extend(site_result["entries"])
                tree_sizes.update(site_result["tree_sizes"])
                visited += site_result["visited"]
                retries += site_result["retries"]
            selected, rejected = self._select(query, entries)
            # Over-asking clients widen ``k`` (reservation width) but set
            # ``min_k`` to the number they actually need: committing the
            # selected set whenever the floor is met lets the client keep
            # its picks and release the surplus, instead of the whole
            # result collapsing because the inflated ``k`` fell short.
            needed = query.k if query.min_k is None else query.min_k
            satisfied = needed is None or len(selected) >= needed
            # A caller whose deadline already fired cannot take the nodes:
            # treat the result as declined and release every reservation.
            caller_gone = done.resolved
            if query.group_by is not None:
                # Group queries return counts, not nodes: members are
                # never reserved (see ``visit``), so there is nothing to
                # commit or release.
                committed, released = [], []
            elif satisfied and not caller_gone:
                committed, released = selected, rejected
            else:
                # A short query commits nothing: every reservation is
                # released so a re-query (ours or a competitor's) can win.
                committed, released = [], selected + rejected
            with rec.use(root_span):
                if rec.enabled and (committed or released):
                    rec.instant("query.settle", category="query",
                                step="commit_release", site=node.site.name,
                                addr=node.address, committed=len(committed),
                                released=len(released))
                self._settle_locks(node, query_id, committed, released)
            result = QueryResult(
                query_id=query_id, entries=tuple(selected), requested=query.k,
                satisfied=satisfied and not caller_gone,
                started_at=started_at, finished_at=sim.now,
                sites_queried=tuple(target_sites),
                sites_answered=tuple(answered), tree_sizes=tree_sizes,
                visited_members=visited, degraded=bool(failed_sites),
                failed_sites=tuple(failed_sites), retries=retries)
            if result.degraded:
                self.obs.metrics.increment("query.degraded")
            if rec.enabled:
                status = ("degraded" if result.degraded
                          else "ok" if result.satisfied else "unsatisfied")
                rec.end(root_span, status=status, retries=retries)
                # End-to-end latency gets its own histogram; the per-step
                # one is fed by the step spans underneath this root.
                self.obs.metrics.histogram("query.duration_ms").observe(
                    root_span.duration_ms, site=node.site.name)
            self.context.active_query_ids.discard(query_id)
            for listener in self.context.result_listeners:
                listener(result, len(committed))
            done.try_resolve(result)

        gather(sim, site_futures,
               timeout=self.context.deadline_for(opts.retry_budget)).add_callback(_merge)
        return done

    def _select(self, query: Query, entries: List[Dict[str, Any]]):
        """Order candidates (GROUPBY) and split into taken / surplus."""
        if query.group_by is not None:
            return self._select_groups(query, entries), []
        deduped: Dict[int, Dict[str, Any]] = {}
        for entry in entries:
            deduped.setdefault(entry["address"], entry)
        ordered = list(deduped.values())
        if query.order_by:
            ordered.sort(
                key=lambda e: self._order_key(e.get("order_value")),
                reverse=query.descending,
            )
        cutoff = len(ordered) if query.k is None else query.k
        return ordered[:cutoff], ordered[cutoff:]

    def _select_groups(self, query: Query,
                       entries: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Fold GROUP BY evidence into sorted ``{"group", "count"}`` rows.

        Evidence arrives in two shapes: pushed-down bucket roll-up counts
        (``{"group", "count"}``, no address) and per-member labels from
        the collect path (``{"address", "group"}``).  Members are deduped
        by address before counting so disjunctive WHERE branches and
        anycast re-visits never double-count.
        """
        totals: Dict[str, int] = {}
        seen: set = set()
        for entry in entries:
            if "count" in entry:
                label = entry["group"]
                totals[label] = totals.get(label, 0) + int(entry["count"])
            else:
                address = entry.get("address")
                if address in seen:
                    continue
                seen.add(address)
                label = entry["group"]
                totals[label] = totals.get(label, 0) + 1
        rows = [{"group": label, "count": count}
                for label, count in sorted(totals.items()) if count > 0]
        cutoff = len(rows) if query.k is None else query.k
        return rows[:cutoff]

    @staticmethod
    def _order_key(value: Any):
        # Missing values order last regardless of direction.
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return (0, float(value), "")
        if isinstance(value, str):
            return (1, 0.0, value)
        return (2, 0.0, "")

    def _settle_locks(self, node: "RBayNode", query_id: int,
                      selected: List[Dict[str, Any]], rejected: List[Dict[str, Any]]) -> None:
        for entry in selected:
            node.send_app(entry["address"], self.name, "commit", {
                "query_id": query_id, "lease_ms": self.context.lease_ms,
            })
        for entry in rejected:
            node.send_app(entry["address"], self.name, "release", {"query_id": query_id})

    # ------------------------------------------------------------------
    # Remote fan-out
    # ------------------------------------------------------------------
    def _ask_remote_site(self, node: "RBayNode", gateway: int,
                         request: _SiteRequest, site_name: str,
                         parent_ctx=None) -> Future:
        """Send a site_query to ``gateway``, retrying lost rounds.

        Each attempt opens a fresh request id in :attr:`requests` with its
        own per-attempt timeout; a reply to a timed-out attempt hits the
        orphan path in :meth:`_on_site_result` and has its reservations
        released there.  The request carries the per-query retry budget,
        so the remote executor honours it too.
        """
        sim = self.context.sim
        done = Future(sim)

        def _attempt(loop: RetryStep) -> None:
            reply = Future(sim, timeout=self.context.site_timeout_ms)
            request_id = self.requests.open(reply)
            with loop.attempt():
                node.send_app(gateway, self.name, "site_query",
                              request.pack(request_id, node.address))

            def _on_reply(value: Any) -> None:
                if _lost(value):
                    loop.failed()
                else:
                    loop.succeeded()
                    done.try_resolve(value)

            reply.add_callback(_on_reply)

        _attempt(RetryStep(
            self.context, request, self.obs, "site", _attempt,
            lambda: done.try_resolve(FutureTimeout(
                f"site request to {gateway} went unanswered")),
            parent_ctx, site=site_name, addr=node.address))
        return done

    # ------------------------------------------------------------------
    # Site executor (steps 1-5 inside one site)
    # ------------------------------------------------------------------
    def _site_query_dnf(self, node: "RBayNode", request: _SiteRequest) -> Future:
        """Run each disjunct of a DNF WHERE clause and union the results.

        A node satisfying several disjuncts appears once (reservations are
        per-query, so re-visits are idempotent).  GROUP BY pushdown is
        only sound for a single conjunction — disjunctive group queries
        must collect per-member labels so the union can dedupe by address.
        """
        sim = self.context.sim
        query = request.query
        if not query.is_disjunctive():
            return self._site_query(node, request, query.predicates)
        done = Future(sim)
        branches = [self._site_query(node, request, conjunction)
                    for conjunction in query.where]

        def _union(results: Any) -> None:
            if isinstance(results, FutureTimeout):
                results = []
            entries: Dict[int, Dict[str, Any]] = {}
            union = _site_result()
            for branch in results:
                if _lost(branch):
                    continue
                for entry in branch["entries"]:
                    entries.setdefault(entry["address"], entry)
                union["tree_sizes"].update(branch["tree_sizes"])
                union["visited"] += branch["visited"]
            union["entries"] = list(entries.values())
            done.try_resolve(union)

        gather(sim, branches, timeout=self.context.site_timeout_ms).add_callback(_union)
        return done

    def _site_query(self, node: "RBayNode", request: _SiteRequest,
                    predicates: List[Predicate]) -> Future:
        """Steps 1-5 for one conjunction: build its plan
        (:func:`~repro.query.plan.plan_conjunction`), probe what the plan
        says, let the plan choose the family, walk it."""
        from repro.core.naming import site_tree  # lazy: avoids cycle
        from repro.query.plan import plan_conjunction  # lazy: avoids cycle

        sim = self.context.sim
        done = Future(sim)
        site_name = node.site.name
        query, options = request.query, request.options
        group_by = query.group_by
        if not predicates and group_by is None:
            sim.call_soon(done.try_resolve, _site_result())
            return done
        rec = self.obs.recorder
        exec_ctx = None
        if rec.enabled:
            # Parent comes from the context stack: the query root for the
            # local site, the coordinator's site_rtt attempt for a gateway.
            exec_span = rec.start("query.site_exec", category="query",
                                  step="site_exec", site=site_name,
                                  addr=node.address, query_id=request.query_id)
            exec_ctx = exec_span.ctx
            done.add_callback(lambda result: self.obs.end_step(
                exec_span, status="timeout" if _lost(result) else "ok"))

        def qualify(tree: str) -> str:
            return site_tree(site_name, tree)

        plan = plan_conjunction(self.context, predicates, group_by,
                                not query.is_disjunctive(), options.planner)
        for strategy in plan.strategies():
            self.obs.metrics.increment(f"query.plan.{strategy}")

        # Steps 1-2: probe the size of every tree the plan names.  Site
        # trees rendezvous inside their site (administrative isolation,
        # §III-E), so every probe and anycast here is site-scoped.
        to_probe = [qualify(tree) for tree in plan.probes()]
        size_of: Dict[str, int] = {}

        def _probe_round(loop: RetryStep, topics_left: List[str]) -> None:
            with loop.attempt(topics=len(topics_left)):
                round_probes = [
                    node.scribe.tree_size(node, topic,
                                          timeout=self.context.probe_timeout_ms,
                                          scope="site")
                    for topic in topics_left
                ]
            gather(sim, round_probes,
                   timeout=self.context.probe_timeout_ms).add_callback(
                lambda sizes: _collect_probe(loop, topics_left, sizes))

        def _collect_probe(loop: RetryStep, topics_left: List[str],
                           sizes: Any) -> None:
            if isinstance(sizes, FutureTimeout):
                sizes = [FutureTimeout()] * len(topics_left)
            missing: List[str] = []
            for topic, size in zip(topics_left, sizes):
                if isinstance(size, FutureTimeout):
                    missing.append(topic)
                    continue
                size_of[topic] = int(size or 0)
            if missing:
                # Re-probe only the trees whose size is still unknown.
                loop.failed(missing)
            else:
                loop.succeeded()
                _after_probe()

        def _probe_exhausted(missing: List[str]) -> None:
            # Retry budget spent: an unreachable tree counts as empty, so
            # planning proceeds on what did answer.
            for topic in missing:
                size_of[topic] = 0
            _after_probe()

        def _after_probe() -> None:
            # GROUP BY pushdown: the bucket roll-up counts *are* the
            # per-group answer — no anycast, no member visits at all.
            if plan.pushdown is not None:
                rows = [{"group": bucket.label, "count": count}
                        for bucket in plan.pushdown
                        if (count := size_of[qualify(bucket.tree)]) > 0]
                done.try_resolve(_site_result(rows, size_of))
                return
            # Step 3 is the plan's: the smallest populated family, and
            # which predicate its membership lets the members skip.
            chosen = plan.choose(size_of, qualify)
            if chosen is None:
                done.try_resolve(_site_result(tree_sizes=size_of))
                return
            topics, local_predicates = chosen
            if group_by is not None:
                # Collect path: every match contributes its group label;
                # members are never reserved, so k is unbounded.
                state = {
                    "kind": "gquery",
                    "query_id": request.query_id,
                    "k": UNBOUNDED_K,
                    "predicates": local_predicates,
                    "group_by": group_by,
                    "entries": [],
                }
            else:
                state = {
                    "kind": "query",
                    "query_id": request.query_id,
                    "k": query.k if query.k is not None else UNBOUNDED_K,
                    "caller": options.caller,
                    "payload": options.payload,
                    "predicates": local_predicates,
                    "order_by": query.order_by,
                    "entries": [],
                }
            self._anycast_chain(node, request, topics, state, size_of, done,
                                exec_ctx)

        if to_probe:
            _probe_round(RetryStep(
                self.context, request, self.obs, "probe", _probe_round,
                _probe_exhausted, exec_ctx, site=site_name,
                addr=node.address), to_probe)
        else:
            # No tree to probe (only "empty" routes, an empty pushdown, a
            # GROUP BY nothing indexes): the answer is empty.
            sim.call_soon(_after_probe)
        return done

    def _anycast_chain(self, node: "RBayNode", request: _SiteRequest,
                       topics: List[str], state: Dict[str, Any],
                       tree_sizes: Dict[str, int], done: Future,
                       parent=None) -> None:
        """Step 4: anycast trees in ascending-size order until k filled.

        A lost anycast (dropped message, crashed member mid-DFS) is retried
        into the same tree after a backoff delay; re-visits are idempotent
        because reservations are keyed by query id.  When the retry budget
        for a tree is spent the chain moves on to the next-larger tree
        with a fresh budget — failures are per-tree, not per-chain.
        ``state`` is never changed once a walk carries it: each tree's
        walk starts from a new dict built from the last one's result.
        """
        if not topics or len(state["entries"]) >= state["k"]:
            done.try_resolve(_site_result(state["entries"], tree_sizes,
                                          state.get("visited_total", 0)))
            return
        topic, rest = topics[0], topics[1:]

        def _next_tree() -> None:
            self._anycast_chain(node, request, rest, state, tree_sizes, done,
                                parent)

        def _attempt(loop: RetryStep) -> None:
            def _on_result(result: Any) -> None:
                if _lost(result):
                    loop.failed()
                    return
                visited = result.get("visited_members", 0)
                loop.succeeded(visited=visited,
                               satisfied=bool(result.get("satisfied")))
                # The running total rides in the DFS state (and so on the
                # wire) between trees.
                self._anycast_chain(node, request, rest, {
                    **state,
                    "entries": result.get("entries", state["entries"]),
                    "visited_total": state.get("visited_total", 0) + visited,
                }, tree_sizes, done, parent)

            with loop.attempt():
                node.scribe.anycast(node, topic, state,
                                    timeout=self.context.site_timeout_ms,
                                    scope="site").add_callback(_on_result)

        _attempt(RetryStep(
            self.context, request, self.obs, "anycast", _attempt, _next_tree,
            parent, site=node.site.name, addr=node.address, topic=topic))

    # ------------------------------------------------------------------
    # Anycast visitor (runs at each visited member; wired by the plane)
    # ------------------------------------------------------------------
    def visit(self, node: "RBayNode", topic: str,
              state: Dict[str, Any]) -> Tuple[Dict[str, Any], bool]:
        """Per-member step 4: predicates + AA authorization + reservation.

        Returns ``(state, satisfied)`` — the :data:`~repro.scribe.scribe.
        AnycastVisitor` contract: ``state`` itself when this member adds
        no entry, else a new dict with the entry appended.
        ``gquery`` visits (the GROUP BY collect path) only contribute a
        group label: they run the predicate checks but never authorize or
        reserve, because a count query takes no nodes.
        """
        if state.get("kind") not in ("query", "gquery"):
            return state, False
        entry = None
        if state["kind"] == "gquery":
            from repro.query.plan import group_label  # lazy: avoids cycle

            strict, implied = Predicate.unpack_checks(state["predicates"])
            group_attr = state["group_by"]
            if (node.check_predicates(strict, implied=implied)
                    and node.has_attribute(group_attr)):
                entry = {
                    "address": node.address,
                    "group": group_label(self.context, group_attr,
                                         node.attribute_value(group_attr)),
                }
        else:
            entry = node.consider_for_query(
                state["query_id"], state.get("caller"), state["predicates"],
                state.get("payload"))
            if entry is not None:
                order_by = state.get("order_by")
                if order_by:
                    entry["order_value"] = node.attribute_value(order_by)
        if entry is not None:
            state = {**state, "entries": state["entries"] + [entry]}
        return state, len(state["entries"]) >= state["k"]

    # ------------------------------------------------------------------
    # Direct messages
    # ------------------------------------------------------------------
    def host_message(self, node: "RBayNode", msg: Message) -> None:
        """Direct query traffic: site fan-out, results, lock control.

        Unknown kinds are ignored: live frames arrive from outside the
        process.
        """
        payload = msg.payload
        handler = self.direct_handlers.get(payload["kind"])
        if handler is not None:
            handler(node, payload["data"], payload.get("origin"))

    def _on_site_query(self, node: "RBayNode", data: Dict[str, Any],
                       origin: int) -> None:
        request = _SiteRequest.unpack(data)

        def _reply(site_result: Any) -> None:
            if _lost(site_result):
                site_result = _site_result()
            node.send_app(data["origin"], self.name, "site_result", {
                "request_id": data["request_id"],
                "query_id": data["query_id"],
                **site_result,
                "retries": request.retries_spent,
            })

        self._site_query_dnf(node, request).add_callback(_reply)

    def _on_site_result(self, node: "RBayNode", data: Dict[str, Any],
                        origin: int) -> None:
        request_id, now = data["request_id"], self.context.sim.now
        accepted = self._accepted
        # An accepted id is forgotten one hold window later, checked here:
        # the member's hold has lapsed by then, so nothing can be misfreed.
        while accepted and (now - next(iter(accepted.values()))
                            >= node.reservation.hold_ms):
            accepted.popitem(last=False)
        if self.requests.answer(request_id, _site_result(
                data["entries"], data["tree_sizes"], data.get("visited", 0),
                data.get("retries", 0))):
            accepted[request_id] = now
            return
        if request_id in accepted:
            return  # a duplicate: the query may yet commit these nodes
        # A late (or unknown) reply: the coordinator gave up on this
        # attempt, so its reservations are released now rather than left
        # to the hold window.  Uncommitted-only: a retried attempt may have
        # won and committed some of these nodes.  GROUP BY rows name no
        # node and hold no reservation.
        query_id = data.get("query_id")
        reserved = [entry["address"] for entry in data["entries"]
                    if "address" in entry]
        if query_id is not None and reserved:
            for address in reserved:
                node.send_app(address, self.name, "release",
                              {"query_id": query_id, "uncommitted_only": True})
            self.obs.metrics.increment("query.orphan_release")

    def _on_commit(self, node: "RBayNode", data: Dict[str, Any],
                   origin: int) -> None:
        node.reservation.commit(data["query_id"], data["lease_ms"])

    def _on_release(self, node: "RBayNode", data: Dict[str, Any],
                    origin: int) -> None:
        if data.get("uncommitted_only"):
            node.reservation.release_uncommitted(data["query_id"])
        else:
            node.reservation.release(data["query_id"])
