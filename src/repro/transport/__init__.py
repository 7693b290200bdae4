"""Real-transport subsystem: pluggable message backends behind one seam.

``repro.transport`` provides the concrete :class:`Transport` base — host
table, conservation counters, send admission, arrival accounting — and
the two backends that add only carriage to it:

* :class:`repro.net.network.Network` — the discrete-event network (the
  deterministic oracle), optionally shadow-checking every delivery
  through the wire codec (``wire_check``);
* :class:`AsyncioTransport` — real TCP sockets on an asyncio loop,
  driven by :class:`RealtimeScheduler` (a wall-clock implementation of
  the simulator's scheduling API), in-process for tests or partitioned
  process-per-site via ``rbay serve``.

Names resolve lazily (PEP 562) so importing :mod:`repro.net` — whose
``Network`` extends :class:`Transport` — never cycles back through
this package.
"""

from typing import Any

__all__ = [
    "Transport",
    "AsyncioTransport",
    "RealtimeScheduler",
    "CodecError",
    "WIRE_VERSION",
    "encode_message",
    "decode_message",
]

_EXPORTS = {
    "Transport": "repro.transport.base",
    "AsyncioTransport": "repro.transport.asyncio_transport",
    "RealtimeScheduler": "repro.transport.realtime",
    "CodecError": "repro.transport.codec",
    "WIRE_VERSION": "repro.transport.codec",
    "encode_message": "repro.transport.codec",
    "decode_message": "repro.transport.codec",
}


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.transport' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(list(globals()) + list(_EXPORTS)))
