"""The transport base: everything that must be identical on every backend.

Every protocol layer (pastry / scribe / query) talks to the network
through the same small surface — attach hosts, send messages, look
peers up — and never cares whether delivery is a simulated heap event
or a real TCP write.  :class:`Transport` owns the part of that surface
with exactly one right answer: the host table, the conservation
counters, send-side *admission* and receive-side *arrival*.  A backend
adds only carriage: the DES :class:`repro.net.network.Network` (the
deterministic oracle) posts heap events, the live :class:`repro.
transport.asyncio_transport.AsyncioTransport` writes TCP frames — so the
oracle and the ``message_conservation`` invariant check one
implementation, not two kept in step by hand.

The module also owns the *one* implementation of trace-context stamping
and restoration (:func:`stamp_trace_ctx` / :func:`deliver_traced`), so
``trace_ctx`` behaves identically whether a message crossed the wire
codec or stayed in-process: stamped once at send (never overwriting a
forked context), pushed exactly once around the handler, popped exactly
once even if the handler raises or disables the recorder mid-delivery,
and never touched at all when the recorder is off.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, Optional,
                    Set, Tuple)

from repro.obs.spans import NULL_RECORDER

# Nothing from repro.net at import time: that package imports this module
# for its Network, and ``from repro import Transport`` must work first.
if TYPE_CHECKING:
    from repro.net.latency import LatencyModel
    from repro.net.message import Message
    from repro.net.site import Site


class NetworkError(RuntimeError):
    """Raised for invalid network operations (unknown address, detached host)."""


class WireSizeError(NetworkError):
    """A sender supplied a message size that differs from the size walk
    (raised only under ``wire_check``, where every supplied size is
    verified at admission)."""


@dataclass
class FaultDecision:
    """Verdict of a fault filter for one message send.

    ``drop`` wins over everything; otherwise the message is delivered
    ``1 + duplicates`` times, each copy with its own latency draw plus
    ``extra_delay_ms``.  Returned by the injector's ``on_send`` hook; the
    transport keeps its conservation counters consistent for every verdict.
    """

    drop: bool = False
    extra_delay_ms: float = 0.0
    duplicates: int = 0

#: Signature of the per-send fault hook: (src, dst, msg) -> decision or None.
FaultFilter = Callable[["Host", "Host", "Message"], Optional[FaultDecision]]


class Host:
    """Base class for anything attachable to a transport.

    Subclasses override :meth:`on_message`.  The address is assigned by
    :meth:`Transport.attach`.
    """

    def __init__(self, site: Site):
        self.site = site
        self.address: Optional[int] = None
        self.network: Optional["Transport"] = None
        self.alive = True

    def on_message(self, msg: Message) -> None:
        raise NotImplementedError

    def send(self, dst_address: int, msg: Message,
             size: Optional[int] = None) -> None:
        """Send ``msg`` to another host; delivery is up to the transport.
        ``size`` is its wire size when the caller knows it (else walked)."""
        if self.network is None:
            raise NetworkError("host not attached to a network")
        self.network.send(self, dst_address, msg, size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} addr={self.address} site={self.site.name}>"


def stamp_trace_ctx(recorder: Any, msg: Message) -> None:
    """Stamp ``msg`` with the sender's current causal context.

    Only when tracing is enabled and the message does not already carry a
    context (forked copies inherit their parent's).  Identical for sim
    and live sends; the codec carries the stamped tuple on the wire.
    """
    if recorder.enabled and msg.trace_ctx is None:
        ctx = recorder.current_ctx()
        if ctx is not None:
            msg.trace_ctx = tuple(ctx)


def deliver_traced(recorder: Any, msg: Message,
                   deliver: Callable[[], None]) -> None:
    """Run ``deliver()`` with the sender's context restored around it.

    The push/pop pair is balanced exactly: the pop happens iff the push
    did, even when the handler raises, and a handler that *disables* (or
    clears) the recorder mid-delivery cannot leave a leaked or doubly
    popped context behind — the depth recorded at push time is restored,
    not blindly popped.  With the recorder disabled the whole function is
    a plain call: no push, no pop, no allocation.
    """
    if not recorder.enabled or msg.trace_ctx is None:
        deliver()
        return
    stack = recorder._ctx_stack
    recorder.push_ctx(tuple(msg.trace_ctx))
    depth = len(stack)
    try:
        deliver()
    finally:
        if len(stack) >= depth:
            # Restore to the pre-push depth; a handler that cleared the
            # stack (recorder.clear()) already removed our frame.
            del stack[depth - 1:]


class Transport:
    """Message backend base: hosts, admission, arrival, traffic accounting.

    The conservation identity

        ``messages_sent == messages_delivered + messages_dropped
                           + messages_in_flight``

    holds at every instant (the chaos suite and the sanitizer check it);
    sends from detached (crashed) hosts are suppressed *outside* the
    equation via ``messages_suppressed``.  This class moves every term:
    :meth:`send` (admission) counts each admitted copy sent and in
    flight and hands it to the backend's :meth:`_carry`; the backend
    passes what comes off its wire to :meth:`_arrive`, which settles the
    gauge and delivers.  A backend adds only carriage, and its own
    wire-failure drops.

    Attributes the protocol layers read directly:

    ``sim``
        The engine (:class:`repro.sim.EngineProtocol`) that times delivery.
    ``latency``
        A latency model with ``nominal_one_way_ms(src_site, dst_site)``
        — used by Pastry for proximity *estimates* even when real
        delivery does not consult it.
    ``recorder`` / ``fault_filter``
        Installed by the plane (observability) and the fault injector.
    ``messages_sent`` … ``per_host_bytes_in``
        The counter set behind the bandwidth/load experiments (Fig. 8b
        and the centralized ablation).
    """

    def __init__(
        self,
        sim: Any,
        latency: Optional[LatencyModel] = None,
        processing_ms: float = 0.0,
    ):
        if latency is None:
            from repro.net.latency import UniformLatencyModel

            latency = UniformLatencyModel()
        self.sim = sim
        self.latency = latency
        #: Fixed receiver-side processing delay added to every delivery —
        #: approximates host cost (the paper's JVMs shared 2-core VMs
        #: 100:1, which dominates its local-site latencies).
        self.processing_ms = processing_ms
        self._hosts: Dict[int, Host] = {}
        self._next_address = 0
        #: Advances on every attach, detach and reattach: while it stands,
        #: every ``has_host`` answer stands.
        self.host_epoch = 0
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_in_flight = 0
        self.messages_suppressed = 0
        self.bytes_sent = 0
        self.per_host_received: Counter = Counter()
        self.per_host_sent: Counter = Counter()
        self.per_host_bytes_in: Counter = Counter()
        self._delivery_hook: Optional[Callable[[Message], None]] = None
        self.fault_filter: Optional[FaultFilter] = None  # None = healthy
        #: Span recorder (the plane's; disabled = tracing off).  The
        #: transport is the propagation point: it stamps outgoing messages
        #: with the sender's current context and restores that context
        #: around each delivery.
        self.recorder = NULL_RECORDER

    #: Verify every sender-supplied size against the walk at admission
    #: (the sim's codec shadow mode turns it on with the round trip).
    wire_check = False
    #: Addresses this process sends for; None = every attached host (a
    #: partitioned live process only shadows the rest).
    _served: Optional[Set[int]] = None
    #: Does a copy leave the in-flight gauge as it arrives?  (A
    #: partitioned live process settles a frame once TCP has it.)
    _track_inflight = True

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def attach(self, host: Host) -> int:
        """Register ``host``, assigning and returning its address."""
        address = self._next_address
        self._next_address += 1
        host.address = address
        host.network = self
        self._hosts[address] = host
        self.host_epoch += 1
        self._host_up(host)
        return address

    def detach(self, host: Host) -> None:
        """Remove a host; traffic to it — in flight or new — is dropped."""
        if host.address in self._hosts:
            del self._hosts[host.address]
        host.alive = False
        self.host_epoch += 1
        self._host_down(host)

    def reattach(self, host: Host) -> None:
        """Crash-recover a previously detached host at its old address.

        The address is stable across the outage, so peers' routing state
        remains valid; messages sent while the host was down stay dropped.
        Reattaching a host that is already attached is a no-op.
        """
        if host.address is None:
            raise NetworkError("cannot reattach a host that was never attached")
        occupant = self._hosts.get(host.address)
        if occupant is not None and occupant is not host:
            raise NetworkError(f"address {host.address} is already occupied")
        self._hosts[host.address] = host
        host.network = self
        host.alive = True
        self.host_epoch += 1
        self._host_up(host)

    def _host_up(self, host: Host) -> None:
        """Backend hook: ``host`` just entered the table (attach/reattach)."""

    def _host_down(self, host: Host) -> None:
        """Backend hook: ``host`` just left the table (detach)."""

    def host(self, address: int) -> Host:
        """The host object at ``address`` (NetworkError if unknown)."""
        try:
            return self._hosts[address]
        except KeyError:
            raise NetworkError(f"no host at address {address}") from None

    def has_host(self, address: int) -> bool:
        """Is ``address`` currently reachable?  This is the liveness
        probe protocol code uses (it models a TCP connect succeeding)."""
        return address in self._hosts

    @property
    def host_count(self) -> int:
        return len(self._hosts)

    def hosts(self) -> Iterable[Host]:
        return self._hosts.values()

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def send(self, src: Host, dst_address: int, msg: Message,
             size: Optional[int] = None) -> None:
        """Deliver ``msg`` from ``src`` to ``dst_address`` asynchronously.

        Fire-and-forget with datagram semantics at the interface: loss
        is expressed to the sender only through its own protocol
        timeouts, which is what maps live connect/write failures onto
        the typed ``QueryError``/``QueryTimeout`` machinery unchanged.

        This is send-side admission, the one send body of every backend
        (each binds it as its own ``send``): stamp, count and decide
        ``msg``'s fate, then hand every admitted copy to the backend's
        :meth:`_carry`.  A message that goes nowhere is fully accounted
        here (suppressed, unknown destination, dropped by the fault
        filter).  A host the backend only shadows (``_served``) is
        suppressed: its owner sends.  ``size`` is the sender's own
        measure of this send, else the message is walked; admission never
        reads the size an earlier send recorded on ``msg``.  Under
        ``wire_check`` a supplied size must equal the walk
        (:class:`WireSizeError`).
        """
        address = src.address
        served = self._served
        if (not src.alive or self._hosts.get(address) is not src
                or (served is not None and address not in served)):
            # A crashed host sends nothing: callbacks it scheduled before
            # the crash (flush timers, retries) must not leak onto the wire.
            self.messages_suppressed += 1
            return
        msg.src = address
        msg.dst = dst_address
        recorder = self.recorder
        if recorder.enabled:
            stamp_trace_ctx(recorder, msg)
        self.messages_sent += 1
        if size is None:
            size = msg.size_bytes()
        elif self.wire_check and size != msg.size_bytes():
            raise WireSizeError(
                f"{msg.kind} {msg.payload.get('kind', '')}: supplied size "
                f"{size} != walked size {msg.size_bytes()}")
        self.bytes_sent += size
        self.per_host_sent[address] += 1
        dst_host = self._hosts.get(dst_address)
        if dst_host is None:
            # Destination unknown at send time: model as a dropped packet
            # (the sender learns via its own timeouts, as on a real network).
            self.messages_dropped += 1
            return
        extra_delay = 0.0
        copies = 1
        if self.fault_filter is not None:
            decision = self.fault_filter(src, dst_host, msg)
            if decision is not None:
                if decision.drop:
                    self.messages_dropped += 1
                    return
                extra_delay = decision.extra_delay_ms
                extra = decision.duplicates  # extra wire packets: account them
                copies += extra
                self.messages_sent += extra
                self.bytes_sent += size * extra
                self.per_host_sent[address] += extra
        self.messages_in_flight += copies
        while copies:
            self._carry(src, dst_host, msg, size, extra_delay)
            copies -= 1

    def _carry(self, src: Host, dst_host: Host, msg: Message, size: int,
               extra_delay: float) -> None:
        """Backend carriage: put one admitted copy of ``msg`` on the wire
        toward ``dst_host``, ``extra_delay`` ms late (the fault filter's).
        The copy is already counted as sent and in flight."""
        raise NotImplementedError

    def _arrive(self, address: int,
                arrivals: Iterable[Tuple[Message, int]]) -> None:
        """Receive side, the one arrival loop of every backend: each
        ``(msg, size)`` copy came off the wire at ``address``, in order.

        Counters move per copy (a handler may crash the destination
        mid-batch, and the conservation identity must hold at every
        instant): the in-flight gauge settles as each copy arrives, on a
        backend that settles it there (``_track_inflight``).
        """
        hosts = self._hosts
        settle = self._track_inflight
        for msg, size in arrivals:
            if settle:
                self.messages_in_flight -= 1
            host = hosts.get(address)
            if host is None or not host.alive:
                # In flight to a host that crashed mid-transit: dropped
                # exactly once here, mirroring the send-time
                # unknown-destination path.
                self.messages_dropped += 1
                continue
            self.messages_delivered += 1
            self.per_host_received[address] += 1
            self.per_host_bytes_in[address] += size
            # Handlers read the size this copy arrived with (out-of-band).
            msg.size = size
            if msg.trace is not None:
                msg.trace.append(address)
            # Restore the sender's causal context for the duration of the
            # handler, so spans it opens parent under the causing span.
            # The tracing-off path (nothing stamped) is ``_dispatch``
            # inlined, saving a call frame per message.
            if msg.trace_ctx is None or not self.recorder.enabled:
                hook = self._delivery_hook
                if hook is not None:
                    hook(msg)
                host.on_message(msg)
            else:
                deliver_traced(self.recorder, msg,
                               partial(self._dispatch, host, msg))

    def _dispatch(self, host: Host, msg: Message) -> None:
        if self._delivery_hook is not None:
            self._delivery_hook(msg)
        host.on_message(msg)

    def set_delivery_hook(self, hook: Optional[Callable[[Message], None]]) -> None:
        """Install an observer invoked on every delivery (tests/metrics)."""
        self._delivery_hook = hook

    def reset_counters(self) -> None:
        """Zero all traffic counters (e.g. after warm-up, before measuring).

        ``messages_in_flight`` is a gauge, not a counter: it tracks packets
        currently on the wire and is left untouched — but the conservation
        identity only holds again once those drain, so callers comparing
        sent/delivered/dropped should reset at a quiet moment.
        """
        self.messages_sent = self.messages_in_flight
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_suppressed = 0
        self.bytes_sent = 0
        self.per_host_received.clear()
        self.per_host_sent.clear()
        self.per_host_bytes_in.clear()

    def close(self) -> None:
        """Release backend resources (sockets); nothing to do by default."""
