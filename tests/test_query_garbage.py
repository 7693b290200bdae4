"""The query path frees its own state by reference counting.

Every lossy step of the five-step query (paper §III-D) runs through a
retry loop and waits on futures with timeouts.  None of that may form a
reference cycle: cyclic garbage is freed only by the collector, which
costs a pause on every workload, and whatever a cycle holds (the request,
the plan, the probed sizes, a result) stays in memory until it runs.

The test drives faulted queries with the automatic collector off and
``gc.DEBUG_SAVEALL`` on, then asks one ``gc.collect()`` what became
unreachable: nothing whose type or function comes from ``repro.query`` or
``repro.sim`` — no ``Future``, backoff, retry loop, executor closure or
closure cell — may be among it.
"""

import gc
import types
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.faults import MessageRule
from repro.query.errors import QueryError
from repro.query.options import QueryOptions
from repro.workloads.generator import FederationWorkload, WorkloadSpec

WATCHED = ("repro.query", "repro.sim")

#: The replies the probe, anycast and site retry loops wait on.
REPLY_KINDS = ("direct/scribe/agg_value", "direct/scribe/anycast_result",
               "direct/query/site_result")


def _origin(obj) -> str:
    """The module that defined ``obj``'s function, else its type."""
    if isinstance(obj, types.CellType):
        try:
            obj = obj.cell_contents
        except ValueError:  # an empty cell
            return "builtins"
    func = getattr(obj, "__func__", obj)  # a bound method's function
    if isinstance(func, types.FunctionType):
        return func.__module__
    return type(obj).__module__


def _watched(obj) -> bool:
    module = _origin(obj)
    return any(module == name or module.startswith(name + ".")
               for name in WATCHED)


@contextmanager
def cyclic_garbage():
    """Collect what the body leaves unreachable, without freeing it early:
    yields a list that is filled with a description of every watched
    object a ``gc.collect()`` after the body finds."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    found = []
    try:
        yield found
        gc.collect()
        found.extend(f"{type(obj).__name__} of {_origin(obj)}"
                     for obj in gc.garbage if _watched(obj))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _plane(tracing: bool) -> RBay:
    plane = RBay(RBayConfig(seed=11, synthetic_sites=4, nodes_per_site=12,
                            jitter=True, tracing=tracing,
                            reservation_hold_ms=1_000.0))
    plane.build()
    FederationWorkload(plane, WorkloadSpec()).apply()
    plane.register_buckets("CPU_utilization", 0.0, 100.0, buckets=4)
    plane.sim.run()
    plane.context.site_timeout_ms = 1_500.0
    plane.context.probe_timeout_ms = 750.0
    return plane


def _queries(plane: RBay):
    sites = [site.name for site in plane.registry]
    for index, site in enumerate(sites * 2):
        other = sites[(index + 1) % len(sites)]
        yield (f"SELECT 2 FROM {site}, {other} WHERE CPU_utilization "
               f"BETWEEN {5 * index} AND {5 * index + 40};", site)
        yield f"SELECT * FROM {site} GROUP BY CPU_utilization;", site
        yield ("SELECT 1 FROM * WHERE instance_type = 'c3.large' "
               "OR CPU_utilization < 30%;", other)


@pytest.mark.parametrize("tracing", [False, True], ids=["untraced", "traced"])
def test_faulted_queries_leave_no_cyclic_garbage(tracing):
    plane = _plane(tracing)
    faults = plane.install_faults()
    for kind in REPLY_KINDS:
        faults.start_rule(MessageRule(name=f"lose {kind}", kind_prefix=kind,
                                      drop_prob=0.4))
    with cyclic_garbage() as found:
        answers = []
        for index, (sql, origin) in enumerate(_queries(plane)):
            options = QueryOptions(origin=origin, payload={"password": "rbay"})
            if index % 2:
                plane.submit(sql, options=options).add_callback(answers.append)
                continue
            try:
                answers.append(plane.query(sql, options=options))
            except QueryError as exc:  # a typed timeout is an answer too
                answers.append(exc)
        plane.sim.run()
        del answers
    retries = {step: plane.counters.get(f"query.retry.{step}")
               for step in ("probe", "anycast", "site")}
    assert all(retries.values()), retries  # every loop retried
    assert not found, Counter(found).most_common(10)
