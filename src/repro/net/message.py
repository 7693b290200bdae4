"""Network messages.

Messages carry a ``kind`` tag dispatched by the receiving host, an arbitrary
payload dict, and bookkeeping used by the experiments: hop counts, the
originating query id, and an approximate wire size so benchmarks can account
for bandwidth at hot spots (e.g. the Ganglia master ablation).

``Message`` is a ``__slots__`` class, not a dataclass: the scale workload
constructs one per send on the hot path, and slotted construction is about
twice as cheap as a dataclass with ``field(default_factory=...)`` defaults.
The size estimator is likewise hot (one call per network send) and was the
single most expensive function in the pre-rewrite profile; it dispatches on
exact ``type()`` with a memo of string byte lengths.  Payloads are plain
builtins (the wire codec rejects everything else), so any other value is
an opaque 16 bytes.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

_msg_ids = itertools.count(1)

#: Memo of UTF-8 byte lengths for hot strings (kinds, topic and aggregate
#: names, payload keys).  Bounded so adversarial workloads with unbounded
#: distinct strings cannot grow it without limit.
_str_sizes: Dict[str, int] = {}
_STR_MEMO_LIMIT = 65_536


def _estimate_size(value: Any) -> int:
    """Rough serialized size in bytes (protocol framing ignored).

    Deliberately simple and deterministic: strings count their UTF-8 bytes,
    numbers a fixed 8, containers recurse, anything that is not exactly a
    builtin payload type is an opaque 16.  Good enough for comparing
    bandwidth *ratios* between designs, which is all the ablations need.
    """
    t = type(value)
    if t is str:
        size = _str_sizes.get(value)
        if size is None:
            # ASCII strings (the overwhelming majority) encode 1:1, so the
            # C-level isascii() check avoids allocating a bytes object.
            size = len(value) if value.isascii() else len(value.encode("utf-8"))
            if len(_str_sizes) < _STR_MEMO_LIMIT:
                _str_sizes[value] = size
        return size
    if t is float or t is int:
        return 8
    if t is dict:
        total = 0
        for k, v in value.items():
            total += _estimate_size(k) + _estimate_size(v)
        return total
    if t is list or t is tuple:
        total = 0
        for v in value:
            total += _estimate_size(v)
        return total
    if value is None or t is bool:
        return 1
    if t is bytes:
        return len(value)
    if t is set or t is frozenset:
        total = 0
        for v in value:
            total += _estimate_size(v)
        return total
    return 16


class Message:
    """A simulated datagram.

    Attributes
    ----------
    kind:
        Dispatch tag, e.g. ``"pastry.route"`` or ``"scribe.join"``.
    payload:
        Free-form contents.
    src / dst:
        Host addresses, filled in by :meth:`Network.send`.
    hops:
        Overlay hops taken so far (incremented by routing layers, not by the
        network itself — one network send may be one overlay hop).
    trace:
        Optional list of host addresses visited, populated when tracing is on.
    trace_ctx:
        Causal propagation context ``(trace_id, span_id)`` stamped by the
        network at send time when span tracing is enabled, and restored
        around delivery — so spans opened in the receiver's handler parent
        under the span that caused this message.  Carried out-of-band
        (not in the payload): it never contributes to ``size_bytes`` and
        never perturbs protocol behaviour.
    """

    __slots__ = ("kind", "payload", "src", "dst", "hops", "msg_id",
                 "trace", "trace_ctx")

    def __init__(
        self,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        hops: int = 0,
        msg_id: Optional[int] = None,
        trace: Optional[list] = None,
        trace_ctx: Optional[tuple] = None,
    ):
        self.kind = kind
        self.payload = {} if payload is None else payload
        self.src = src
        self.dst = dst
        self.hops = hops
        self.msg_id = next(_msg_ids) if msg_id is None else msg_id
        self.trace = trace
        self.trace_ctx = trace_ctx

    def size_bytes(self) -> int:
        """Approximate wire size of this message."""
        return 24 + _estimate_size(self.kind) + _estimate_size(self.payload)

    def fork(self, **payload_updates: Any) -> "Message":
        """Copy for re-forwarding: same kind/payload, fresh id, src/dst reset."""
        payload = dict(self.payload)
        payload.update(payload_updates)
        return Message(
            kind=self.kind,
            payload=payload,
            hops=self.hops,
            trace=None if self.trace is None else list(self.trace),
            trace_ctx=self.trace_ctx,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (self.kind == other.kind and self.payload == other.payload
                and self.src == other.src and self.dst == other.dst
                and self.hops == other.hops and self.msg_id == other.msg_id
                and self.trace == other.trace
                and self.trace_ctx == other.trace_ctx)

    def __repr__(self) -> str:
        return (f"Message(kind={self.kind!r}, payload={self.payload!r}, "
                f"src={self.src!r}, dst={self.dst!r}, hops={self.hops!r}, "
                f"msg_id={self.msg_id!r}, trace={self.trace!r}, "
                f"trace_ctx={self.trace_ctx!r})")
