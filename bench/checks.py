"""Output checks: returned rows against the nodes' ground-truth attributes.

The SQL text is parsed with the system's parser, but each predicate is
then evaluated here, on the attribute values read straight off the nodes,
so an executor or predicate bug cannot vouch for itself.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.query.sql import parse_query

_COMPARE = {
    "=": lambda a, b: a == b,
    "==": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "between": lambda a, b: b[0] <= a <= b[1],
}


def _holds(actual: Any, op: str, expected: Any) -> bool:
    if actual is None:
        return False
    try:
        return bool(_COMPARE[op](actual, expected))
    except TypeError:
        return False


def check_rows(plane: Any, sql: str, result: Any, population: int) -> List[str]:
    """Failures of one query result (empty list = rows are correct).

    Node rows must name a node of the FROM list whose attributes satisfy
    one WHERE disjunct; GROUP BY rows must count the whole population.
    """
    query = parse_query(sql)
    errors: List[str] = []
    if query.group_by is not None:
        counted = sum(int(row["count"]) for row in result.entries)
        if not query.where and counted != population:
            errors.append(f"GROUP BY counted {counted} of {population}: {sql}")
        return errors
    by_address = {node.address: node for node in plane.nodes}
    seen = set()
    for entry in result.entries:
        address = entry["address"]
        node = by_address.get(address)
        if node is None:
            errors.append(f"row names unknown address {address}: {sql}")
            continue
        if address in seen:
            errors.append(f"row {address} returned twice: {sql}")
        seen.add(address)
        if query.sites is not None and node.site.name not in query.sites:
            errors.append(f"row {address} at {node.site.name} is outside FROM: {sql}")
        if query.where and not any(
                all(_holds(node.attribute_value(p.attribute), p.op, p.value)
                    for p in conjunction)
                for conjunction in query.where):
            errors.append(f"row {address} fails the WHERE clause: {sql}")
    if query.k is not None and len(result.entries) > query.k:
        errors.append(f"{len(result.entries)} rows for LIMIT {query.k}: {sql}")
    if result.satisfied and query.k is not None and len(result.entries) < query.k:
        errors.append(f"satisfied with {len(result.entries)} < {query.k} rows: {sql}")
    return errors


def check_root_aggregates(plane: Any, topic_of: Dict[str, str],
                          last_published: Dict[int, Dict[str, float]]) -> List[str]:
    """Quiescent root sum/max/min against the last value each node published.

    ``topic_of`` maps site name → that site's load tree; ``last_published``
    maps node address → ``{aggregate: value}``.  The plane must be drained.
    """
    errors: List[str] = []
    for site_name, topic in topic_of.items():
        nodes = [n for n in plane.nodes if n.site.name == site_name]
        values = [last_published[n.address] for n in nodes]
        truth = {
            "sum": sum(v["sum"] for v in values),
            "max": max(v["max"] for v in values),
            "min": min(v["min"] for v in values),
        }
        asker = nodes[0]
        got = asker.scribe.query_aggregate(
            asker, topic, list(truth), scope="site").result()
        for name, want in truth.items():
            have = got.get(name)
            # The tree folds the sum in tree order, ours in address order.
            if have is None or abs(have - want) > 1e-6 * max(1.0, abs(want)):
                errors.append(f"{topic} root {name} = {have!r}, published {want!r}")
    return errors


def check_no_reservations(plane: Any) -> List[str]:
    """No node may still hold a reservation or lease."""
    held = [n.address for n in plane.nodes if not n.reservation.is_free()]
    return [f"{len(held)} reservations still held (first: {held[:5]})"] if held else []


def check_same_rows(live_rows: Sequence[Any], sim_rows: Sequence[Any]) -> List[str]:
    """The live transport must return the rows the DES oracle returns."""
    errors = []
    if len(live_rows) != len(sim_rows):
        return [f"live answered {len(live_rows)} queries, sim {len(sim_rows)}"]
    differing = [i for i, (a, b) in enumerate(zip(live_rows, sim_rows)) if a != b]
    if differing:
        i = differing[0]
        errors.append(f"{len(differing)} live results differ from sim "
                      f"(first: query {i}: {live_rows[i]!r} vs {sim_rows[i]!r})")
    return errors
