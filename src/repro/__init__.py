"""RBAY: a scalable and extensible information plane for federating
distributed datacenter resources (ICDCS 2017) — full Python reproduction.

Quick orientation (details in README.md / docs/architecture.md):

* :mod:`repro.core` — the public API: build a federation (:class:`RBay`),
  post resources (:class:`SiteAdmin`), query them (:class:`Customer`);
* :mod:`repro.sim` / :mod:`repro.net` — deterministic discrete-event
  substrate and the Table II wide-area network;
* :mod:`repro.pastry` / :mod:`repro.scribe` — the DHT and the attribute
  trees (multicast / anycast / aggregate);
* :mod:`repro.aa` — the sandboxed active-attribute runtime ("Luette");
* :mod:`repro.query` — the SQL interface and five-step protocol;
* :mod:`repro.transport` — the transport seam behind the DES
  ``Network``: the wire codec and the real-socket ``AsyncioTransport``
  (sim-as-oracle validated);
* :mod:`repro.check` — the runtime invariant sanitizer (TSan/ASan-style
  continuous checking of tree, aggregate, reservation, and network
  invariants while workloads run);
* :mod:`repro.baselines`, :mod:`repro.workloads`, :mod:`repro.metrics`,
  :mod:`repro.ext` — baselines, evaluation workloads, measurement, and the
  paper's future-work extensions.

The names in ``__all__`` are the frozen public surface (see
``docs/architecture.md`` §"Public API & stability"); they resolve lazily
(PEP 562) so ``import repro`` stays cheap and cycle-free.
"""

from typing import Any

__version__ = "1.0.0"

__all__ = [
    "RBay",
    "RBayConfig",
    "QueryOptions",
    "QueryResult",
    "QueryError",
    "FaultSchedule",
    "Observability",
    "Sanitizer",
    "Transport",
    "__version__",
]

#: Where each lazily-exported public name actually lives.
_EXPORTS = {
    "RBay": "repro.core.plane",
    "RBayConfig": "repro.core.plane",
    "QueryOptions": "repro.query.options",
    "QueryResult": "repro.query.result",
    "QueryError": "repro.query.errors",
    "FaultSchedule": "repro.faults.schedule",
    "Observability": "repro.obs",
    "Sanitizer": "repro.check",
    "Transport": "repro.transport.base",
}


def __getattr__(name: str) -> Any:
    """Resolve a public name from its home module on first access."""
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: subsequent accesses skip __getattr__
    return value


def __dir__() -> list:
    """Advertise the lazy exports alongside the real module attributes."""
    return sorted(set(list(globals()) + list(_EXPORTS)))
