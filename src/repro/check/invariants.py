"""The five built-in plane invariants.

Each check is a pure observer: it reads node, tree, reservation, and
network state through the :class:`~repro.check.sanitizer.SanitizerContext`
and yields ``(subject, detail)`` pairs for every inconsistency it sees.
Checks never mutate protocol state, never schedule events, and never
touch an RNG — a sanitized run stays trace-identical to an unsanitized
one.

The five invariants (ISSUE 5 / architecture §13):

1. **tree_structure** — per topic, parent/child pointers are mutually
   consistent, parent chains are acyclic, and there is exactly one live
   root: the node a converged overlay would deliver the topic key to.
   Churn-sensitive (grace window during sweeps; skipped while faults are
   structurally active).
2. **aggregate_coherence** — at quiescent points, each tree root's
   recomputed aggregate equals a direct recomputation from the live
   members' ground-truth local values.
3. **reservation_hygiene** — every held reservation maps to a known
   query, committed leases belong to queries that settled satisfied, and
   uncommitted holds never outlive the hold window.
4. **message_conservation** — the network's counter identity
   ``sent == delivered + dropped + in_flight`` holds at every instant,
   and ``in_flight`` drops to zero at quiescence.
5. **child_acc_residency** — no node's child accumulators name an
   address that is neither a current child nor a live former-child that
   still owes this node its deferred goodbye.

Hot-tree replication (ISSUE 7 / architecture §15) adds three more:

6. **replica_set_agreement** — a root's replica set names only its own
   children, live replicas acknowledge their owner, and a node serving
   the replica role under a live parent is listed by that parent.
7. **replica_child_partition** — while a topic has active replica state,
   every child address is claimed by at most one live parent (the
   re-partitioning of children across replicas is a partition, not a
   fan-out).
8. **replica_value_coherence** — at quiescent points, each replica's
   served snapshot equals the root's own finalized aggregates, name for
   name (what makes diverted reads exact rather than approximate).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, List, Tuple

# Imported lazily-typed to avoid a cycle: sanitizer imports this module
# inside InvariantRegistry.default().
from repro.check.sanitizer import Invariant, SanitizerContext

#: Relative/absolute tolerance for float aggregate comparison (tree folds
#: are order-sensitive, so float sums differ by rounding only).
FLOAT_TOL = 1e-9


def _live_topic_states(ctx: SanitizerContext) -> Dict[str, List[Tuple[Any, Any]]]:
    """``topic -> [(node, TopicState), ...]`` over live, tree-relevant state.

    Vestige states (a root flag left behind by a long-gone delivery, with
    no membership, children, or accumulators) are not load-bearing and are
    skipped — they carry no protocol obligations.
    """
    by_topic: Dict[str, List[Tuple[Any, Any]]] = {}
    network = ctx.plane.network
    for node in ctx.plane.nodes:
        if not network.has_host(node.address):
            continue
        for topic, state in node.scribe.topics().items():
            if state.in_tree() or state.child_acc:
                by_topic.setdefault(topic, []).append((node, state))
    return by_topic


def _load_bearing(state: Any) -> bool:
    """Does this state carry protocol obligations (vs a vestige root flag)?

    ``child_acc`` only counts when an *inner* accumulator map is non-empty:
    dropping a child pops its entry but leaves the (now empty) per-aggregate
    dict behind, and an empty dict carries no obligations.
    """
    return bool(state.member or state.children
                or any(state.child_acc.values()))


def check_tree_structure(ctx: SanitizerContext) -> Iterator[Tuple[str, str]]:
    """Invariant 1: per-topic tree pointers form one rooted, acyclic tree."""
    overlay = ctx.plane.overlay
    for topic, states in sorted(_live_topic_states(ctx).items()):
        by_addr = {node.address: (node, state) for node, state in states}
        # (a) parent/child mutual consistency + (b) no stale child links.
        for node, state in states:
            if state.parent is not None and state.parent in by_addr:
                _, parent_state = by_addr[state.parent]
                if node.address not in parent_state.children:
                    yield (topic,
                           f"node {node.address} points at parent "
                           f"{state.parent}, which does not list it as a child")
            for child_addr in state.children:
                if child_addr not in by_addr:
                    continue  # dead child: dropped by the next probe round
                _, child_state = by_addr[child_addr]
                if (child_state.parent != node.address
                        and child_state.former_parent != node.address):
                    yield (topic,
                           f"node {node.address} lists child {child_addr}, "
                           f"which acknowledges neither parent nor "
                           f"former-parent")
            if state.is_root and state.parent is not None and _load_bearing(state):
                yield (topic,
                       f"root {node.address} still holds a parent pointer "
                       f"({state.parent})")
        # (c) acyclicity: follow parent chains; any repeat is a cycle.
        for node, state in states:
            seen = {node.address}
            cursor = state.parent
            while cursor is not None and cursor in by_addr:
                if cursor in seen:
                    yield (topic,
                           f"parent chain from node {node.address} cycles "
                           f"at {cursor}")
                    break
                seen.add(cursor)
                cursor = by_addr[cursor][1].parent
        # (d) exactly one load-bearing root, anchored where routing says.
        roots = [(node, state) for node, state in states
                 if state.is_root and _load_bearing(state)]
        bearing = [s for _, s in states if _load_bearing(s)]
        if len(roots) > 1:
            addrs = sorted(node.address for node, _ in roots)
            yield (topic, f"multiple live roots: {addrs}")
        elif not roots and bearing:
            yield (topic, "load-bearing tree state exists but no live root")
        elif roots:
            node, state = roots[0]
            site_index = node.site.index if state.scope == "site" else None
            expected = overlay.root_of(state.key, site_index)
            if expected.address != node.address:
                yield (topic,
                       f"root lives at node {node.address} but a converged "
                       f"overlay anchors the key at {expected.address}")


def check_aggregate_coherence(ctx: SanitizerContext) -> Iterator[Tuple[str, str]]:
    """Invariant 2: root aggregates equal direct member recomputation."""
    for topic, states in sorted(_live_topic_states(ctx).items()):
        roots = [(node, state) for node, state in states
                 if state.is_root and _load_bearing(state)]
        if len(roots) != 1:
            continue  # tree_structure already owns malformed-root reports
        root_node, root_state = roots[0]
        scribe = root_node.scribe
        agg_names = set(root_state.agg_names())
        for _, state in states:
            if state.member:
                agg_names.update(state.local)
        for agg_name in sorted(agg_names):
            fn = scribe.functions.get(agg_name)
            if fn is None:
                continue
            truth = fn.zero()
            for node, state in states:
                if state.member and agg_name in state.local:
                    truth = fn.combine(truth, fn.lift(state.local[agg_name]))
            reported = scribe._compute_own_acc(root_state, agg_name)
            expected = fn.finalize(truth)
            actual = fn.finalize(reported)
            if not _values_close(expected, actual):
                yield (topic,
                       f"aggregate '{agg_name}' at root {root_node.address}: "
                       f"tree reports {actual!r}, member ground truth is "
                       f"{expected!r}")


def check_reservation_hygiene(ctx: SanitizerContext) -> Iterator[Tuple[str, str]]:
    """Invariant 3: reservations map to known queries and honor windows."""
    san = ctx.sanitizer
    known = ctx.plane.context.active_query_ids | san.finished_queries
    now = ctx.now
    for node in ctx.plane.nodes:
        table = node.reservation
        holder = table.holder()  # runs the table's lazy expiry first
        if holder is None:
            continue
        subject = f"node {node.address}"
        if holder not in known:
            yield (subject,
                   f"reservation held by unknown query {holder} (never "
                   f"started or tracked)")
        if table.committed:
            if holder not in san.satisfied_committed:
                yield (subject,
                       f"committed lease for query {holder}, which never "
                       f"settled a satisfied result")
        else:
            if table.expires_at > now + table.hold_ms:
                yield (subject,
                       f"uncommitted hold for query {holder} expires at "
                       f"{table.expires_at:.1f}ms, beyond one hold window "
                       f"from now ({now:.1f}ms)")
            if ctx.quiescent and holder in san.finished_queries:
                yield (subject,
                       f"uncommitted hold for settled query {holder} "
                       f"survived to quiescence")


def check_message_conservation(ctx: SanitizerContext) -> Iterator[Tuple[str, str]]:
    """Invariant 4: sent == delivered + dropped + in_flight, always."""
    net = ctx.plane.network
    accounted = net.messages_delivered + net.messages_dropped + net.messages_in_flight
    if net.messages_sent != accounted:
        yield ("network",
               f"sent={net.messages_sent} != delivered="
               f"{net.messages_delivered} + dropped={net.messages_dropped} "
               f"+ in_flight={net.messages_in_flight}")
    if net.messages_in_flight < 0:
        yield ("network", f"negative in_flight gauge: {net.messages_in_flight}")
    if ctx.quiescent and net.messages_in_flight != 0:
        yield ("network",
               f"{net.messages_in_flight} message(s) still in flight at "
               f"quiescence")


def check_child_acc_residency(ctx: SanitizerContext) -> Iterator[Tuple[str, str]]:
    """Invariant 5: child accumulators only name children or known orphans."""
    by_topic = _live_topic_states(ctx)
    for topic, states in sorted(by_topic.items()):
        by_addr = {node.address: state for node, state in states}
        for node, state in states:
            resident: set = set()
            for acc_map in state.child_acc.values():
                resident.update(acc_map)
            for addr in sorted(resident):
                if addr in state.children:
                    continue
                former = by_addr.get(addr)
                if former is not None and former.former_parent == node.address:
                    continue  # a deferred goodbye is still owed to us
                yield (topic,
                       f"node {node.address} holds an accumulator from "
                       f"{addr}, which is neither a child nor a tracked "
                       f"former-parent orphan")


def _replica_active(states: List[Tuple[Any, Any]]) -> bool:
    """Does any live state of this topic carry hot-tree replica roles?"""
    return any(state.replicas or state.replica_of is not None
               for _, state in states)


def check_replica_set_agreement(ctx: SanitizerContext) -> Iterator[Tuple[str, str]]:
    """Invariant 6: replica sets and replica roles agree across the tree."""
    for topic, states in sorted(_live_topic_states(ctx).items()):
        by_addr = {node.address: (node, state) for node, state in states}
        for node, state in states:
            for addr in sorted(state.replicas):
                if addr not in state.children:
                    yield (topic,
                           f"node {node.address} lists replica {addr}, "
                           f"which is not one of its children")
                entry = by_addr.get(addr)
                if entry is None:
                    continue  # dead replica: pruned next maintenance tick
                if entry[1].replica_of != node.address:
                    yield (topic,
                           f"replica {addr} does not acknowledge owner "
                           f"{node.address}")
            if (state.replica_of is not None
                    and state.parent == state.replica_of):
                # Only a replica whose tree link still points at its owner
                # is expected to be listed — one that re-homed self-demotes
                # on its next maintenance tick.
                owner = by_addr.get(state.replica_of)
                if owner is not None and node.address not in owner[1].replicas:
                    yield (topic,
                           f"node {node.address} serves as a replica of "
                           f"{state.replica_of}, which does not list it")


def check_replica_child_partition(ctx: SanitizerContext) -> Iterator[Tuple[str, str]]:
    """Invariant 7: replication re-partitions children, never fans them out."""
    for topic, states in sorted(_live_topic_states(ctx).items()):
        if not _replica_active(states):
            continue
        parents_of: Dict[int, List[int]] = {}
        for node, state in states:
            for child_addr in state.children:
                parents_of.setdefault(child_addr, []).append(node.address)
        for child_addr, parents in sorted(parents_of.items()):
            if len(parents) > 1:
                yield (topic,
                       f"child {child_addr} is listed by multiple live "
                       f"parents: {sorted(parents)}")


def check_replica_value_coherence(ctx: SanitizerContext) -> Iterator[Tuple[str, str]]:
    """Invariant 8: replica snapshots equal the root's finalized answers."""
    for topic, states in sorted(_live_topic_states(ctx).items()):
        roots = [(node, state) for node, state in states
                 if state.is_root and state.replicas]
        if len(roots) != 1:
            continue  # no replicated root (or tree_structure owns the mess)
        root_node, root_state = roots[0]
        scribe = root_node.scribe
        root_names = set(root_state.agg_names())
        for node, state in states:
            if (state.replica_of != root_node.address
                    or state.replica_values is None):
                continue
            for agg_name in sorted(set(state.replica_values) & root_names):
                fn = scribe.functions.get(agg_name)
                if fn is None:
                    continue
                expected = fn.finalize(
                    scribe._compute_own_acc(root_state, agg_name))
                actual = state.replica_values[agg_name]
                if not _values_close(expected, actual):
                    yield (topic,
                           f"replica {node.address} snapshot for "
                           f"'{agg_name}' is {actual!r}, root "
                           f"{root_node.address} computes {expected!r}")


def _values_close(expected: Any, actual: Any) -> bool:
    """Order-of-combination float drift is fine; anything else must match."""
    if isinstance(expected, float) or isinstance(actual, float):
        try:
            return math.isclose(expected, actual,
                                rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)
        except TypeError:
            return expected == actual
    if isinstance(expected, (tuple, list)) and isinstance(actual, (tuple, list)):
        return (len(expected) == len(actual)
                and all(_values_close(e, a) for e, a in zip(expected, actual)))
    return expected == actual


def default_invariants() -> List[Invariant]:
    """The built-in invariants, in check order."""
    return [
        Invariant(
            name="tree_structure",
            check=check_tree_structure,
            description="per-topic trees are rooted, acyclic, and mutually "
                        "linked, with the root anchored at the routing key",
            grace=True,
        ),
        Invariant(
            name="aggregate_coherence",
            check=check_aggregate_coherence,
            description="root aggregates equal direct recomputation from "
                        "member ground truth",
            quiescent_only=True,
        ),
        Invariant(
            name="reservation_hygiene",
            check=check_reservation_hygiene,
            description="reservations map to in-flight queries; committed "
                        "leases are never demoted and holds never outlive "
                        "their window",
        ),
        Invariant(
            name="message_conservation",
            check=check_message_conservation,
            description="sent == delivered + dropped + in_flight at every "
                        "instant, with zero in flight at quiescence",
        ),
        Invariant(
            name="child_acc_residency",
            check=check_child_acc_residency,
            description="child accumulators only name current children or "
                        "tracked former-parent orphans",
            grace=True,
        ),
        Invariant(
            name="replica_set_agreement",
            check=check_replica_set_agreement,
            description="replica sets name only children, and replica "
                        "roles are mutually acknowledged",
            grace=True,
        ),
        Invariant(
            name="replica_child_partition",
            check=check_replica_child_partition,
            description="while replicas are active, each child is claimed "
                        "by at most one live parent",
            grace=True,
        ),
        Invariant(
            name="replica_value_coherence",
            check=check_replica_value_coherence,
            description="replica snapshots equal the root's finalized "
                        "aggregates at quiescence",
            quiescent_only=True,
        ),
    ]
