"""Network messages.

Messages carry a ``kind`` tag dispatched by the receiving host, an arbitrary
payload dict, and bookkeeping used by the experiments: hop counts, the
originating query id, and an approximate wire size so benchmarks can account
for bandwidth at hot spots (e.g. the Ganglia master ablation).

``Message`` is a ``__slots__`` class, not a dataclass: the scale workload
constructs one per send on the hot path, and slotted construction is about
twice as cheap as a dataclass with ``field(default_factory=...)`` defaults.
The size estimator is likewise hot and was the single most expensive
function in the pre-rewrite profile; it dispatches on exact ``type()`` with
a memo of string byte lengths.  Payloads are plain builtins (the wire codec
rejects everything else), so any other value is an opaque 16 bytes.

A message is a copy: no handler mutates a payload it received or sent, so
a size measured once holds for as long as the message is in flight.
Every send Pastry builds names its size where it is built:
:meth:`repro.pastry.node.PastryNode.send_app` sizes a direct message as a
per-``(app, kind)`` envelope constant plus the caller's size of its
``data`` (the anycast walk supplies the arrived size plus what the hop
appended) or the walk of the ``data`` alone; ``route()`` sizes a routed
message once, at its origin, and every hop re-sends it with the size it
arrived with (:attr:`Message.size`).  The transport walks only a send
that names no size, at admission; a ``wire_check`` run compares every
supplied size with the walk.

A sender may also stamp :attr:`Message.state_version`, the version of its
own state the payload was built from.  The Pastry leaf-set exchange does:
a receiver that already ingested a reply built from the same version, and
whose own state has not moved since, skips it.  Like ``size`` the slot is
out-of-band — never encoded, not part of ``==`` — so every decoded copy
(a live socket's, or ``wire_check``'s) reads None and is ingested in full.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

_msg_ids = itertools.count(1)

#: Memo of UTF-8 byte lengths for hot strings (kinds, topic and aggregate
#: names, payload keys).  Bounded so adversarial workloads with unbounded
#: distinct strings cannot grow it without limit; the wire encoder's memo
#: of tagged strings has the same bound.
_str_sizes: Dict[str, int] = {}
STR_MEMO_LIMIT = 65_536

#: The estimator's per-type rules: a number (int or float) is 8 bytes,
#: None or a bool 1, a value of no wire type 16, and a message 24 more
#: than its kind and payload; a string counts its UTF-8 bytes, bytes
#: their length, a container the sum of its items.  The wire decoder
#: sizes what it decodes by the same constants, from the lengths it reads
#: (:func:`repro.transport.codec.decode_message`).
NUMBER_SIZE = 8
SCALAR_SIZE = 1
OPAQUE_SIZE = 16
MESSAGE_OVERHEAD = 24


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
            if len(_str_sizes) < STR_MEMO_LIMIT:
                _str_sizes[value] = size
        return size
    if t is float or t is int:
        return NUMBER_SIZE
    # Containers size numbers and memoized strings in place; every other
    # value goes through the call (which memoizes a new string).
    if t is dict:
        total = 0
        for k, v in value.items():
            size = _str_sizes.get(k) if type(k) is str else None
            total += _estimate_size(k) if size is None else size
            t = type(v)
            if t is int or t is float:
                total += NUMBER_SIZE
                continue
            size = _str_sizes.get(v) if t is str else None
            total += _estimate_size(v) if size is None else size
        return total
    if t is list or t is tuple:
        total = 0
        for v in value:
            t = type(v)
            if t is int or t is float:
                total += NUMBER_SIZE
                continue
            size = _str_sizes.get(v) if t is str else None
            total += _estimate_size(v) if size is None else size
        return total
    if value is None or t is bool:
        return SCALAR_SIZE
    if t is bytes:
        return len(value)
    if t is set or t is frozenset:
        total = 0
        for v in value:
            total += _estimate_size(v)
        return total
    return OPAQUE_SIZE


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
    size:
        Wire size in bytes this copy arrived with, recorded by the
        transport before the handler runs; on a routed message at its
        origin, the size ``route()`` built it with; on a decoded copy,
        the size its decode measured (else None before delivery).  Also
        out-of-band: never encoded, not part of ``==``.
        Pastry's forward re-sends a routed message with it (no hop
        changes a routed payload's size); the transport itself never
        reads it for a send — a send is sized by its caller or walked.
    state_version:
        Version of the sender's state the payload was built from, when the
        sender stamps one (None otherwise).  Out-of-band like ``size``:
        never encoded, not part of ``==``, None on every decoded copy.
    """

    __slots__ = ("kind", "payload", "src", "dst", "hops", "msg_id",
                 "trace", "trace_ctx", "size", "state_version")

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
        self.size: Optional[int] = None
        self.state_version: Optional[int] = None

    def size_bytes(self) -> int:
        """Approximate wire size of this message."""
        return (MESSAGE_OVERHEAD + _estimate_size(self.kind)
                + _estimate_size(self.payload))

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
