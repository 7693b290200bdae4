"""Shared fixtures: simulators, overlays, and small federated planes."""

from __future__ import annotations

import pytest

from repro.core.plane import RBay, RBayConfig
from repro.net.latency import TableIILatencyModel, UniformLatencyModel, make_ec2_registry
from repro.net.network import Network
from repro.pastry.overlay import Overlay
from repro.query.executor import QueryApplication, _QueryContext
from repro.scribe.scribe import _WALK_ENVELOPES, ScribeApplication
from repro.sim.engine import Simulator
from repro.sim.random_streams import RandomStreams


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def streams():
    return RandomStreams(1234)


@pytest.fixture
def registry():
    return make_ec2_registry()


@pytest.fixture
def network(sim):
    return Network(sim, UniformLatencyModel(0.5))


@pytest.fixture
def ec2_network(sim):
    return Network(sim, TableIILatencyModel())


def build_overlay(sim, network, streams, registry, per_site=12, isolation=False):
    overlay = Overlay(sim, network, streams, registry, isolation=isolation)
    overlay.create_population(per_site)
    overlay.bootstrap()
    return overlay


@pytest.fixture
def overlay(sim, network, streams, registry):
    return build_overlay(sim, network, streams, registry)


@pytest.fixture
def scribe_overlay(sim, network, streams, registry):
    """An overlay whose nodes all carry a ScribeApplication."""
    ov = build_overlay(sim, network, streams, registry, per_site=12, isolation=True)
    for node in ov.nodes:
        node.register_app(ScribeApplication(sim))
    return ov


@pytest.fixture(scope="module")
def small_plane():
    """A built 8-site plane with 10 nodes/site, module-scoped for speed."""
    plane = RBay(RBayConfig(seed=7, nodes_per_site=10, jitter=False)).build()
    plane.sim.run()
    return plane


def registered_wire_kinds(rebalance=None):
    """``{wire kind: handler}`` read off the dispatch tables of a fresh
    Scribe (with a balancer when ``rebalance`` is given) and query app —
    keyed like ``Network.wire_kinds_seen`` and the docs/protocol.md table.

    A walk has no table entry: ``deliver`` / ``forward`` start a routed
    ``anycast`` and ``host_message`` every kind in ``_WALK_ENVELOPES``
    (a diverted one only on a plane with a balancer, whose own entry
    serves a divert that is not in the tree) before the table."""
    sim = Simulator()
    scribe = ScribeApplication(sim, rebalance=rebalance)
    query = QueryApplication(_QueryContext(sim, []))
    walk = ScribeApplication._anycast_visit
    kinds = {"route/scribe/anycast": walk}
    for prefix, table in (("route/scribe/", scribe.routed_handlers),
                          ("direct/scribe/", scribe.direct_handlers),
                          ("direct/query/", query.direct_handlers)):
        for kind, handler in table.items():
            kinds[prefix + kind] = handler
    for kind in _WALK_ENVELOPES:
        if kind == "anycast_walk" or rebalance is not None:
            kinds.setdefault("direct/scribe/" + kind, walk)
    return kinds
