"""The transport seam: the contract every message backend implements.

Every protocol layer (pastry / scribe / query) talks to the network
through the same small surface — attach hosts, send messages, look
peers up — and never cares whether delivery is a simulated heap event
or a real TCP write.  :class:`Transport` names that contract explicitly
so the DES network (:class:`repro.net.network.Network`) and the
live socket backend (:class:`repro.transport.asyncio_transport.
AsyncioTransport`) are interchangeable behind it, with the simulator
acting as the deterministic oracle for the live runs.

The module also owns the *one* implementation of trace-context stamping
and restoration (:func:`stamp_trace_ctx` / :func:`deliver_traced`).
Both backends call these helpers, so ``trace_ctx`` behaves identically
whether a message crossed the wire codec or stayed in-process: stamped
once at send (never overwriting a forked context), pushed exactly once
around the handler, popped exactly once even if the handler raises or
disables the recorder mid-delivery, and never touched at all when the
recorder is off.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Iterable, Optional

from repro.net.message import Message


def stamp_trace_ctx(recorder: Any, msg: Message) -> None:
    """Stamp ``msg`` with the sender's current causal context.

    Only when tracing is enabled and the message does not already carry a
    context (forked copies inherit their parent's).  Identical for sim
    and live sends; the codec carries the stamped tuple on the wire.
    """
    if recorder is not None and recorder.enabled and msg.trace_ctx is None:
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
    not blindly popped.  With the recorder absent or disabled the whole
    function is a plain call: no push, no pop, no allocation.
    """
    if recorder is None or not recorder.enabled or msg.trace_ctx is None:
        deliver()
        return
    stack = getattr(recorder, "_ctx_stack", None)
    recorder.push_ctx(tuple(msg.trace_ctx))
    depth = None if stack is None else len(stack)
    try:
        deliver()
    finally:
        if stack is None:
            recorder.pop_ctx()
        elif depth is not None and len(stack) >= depth:
            # Restore to the pre-push depth; a handler that cleared the
            # stack (recorder.clear()) already removed our frame.
            del stack[depth - 1:]


class Transport(abc.ABC):
    """Abstract message backend: hosts, delivery, and traffic accounting.

    The contract extracted from the original DES ``Network``.  Concrete
    transports must keep the conservation identity

        ``messages_sent == messages_delivered + messages_dropped
                           + messages_in_flight``

    at every instant (sends from detached hosts are suppressed *outside*
    the equation via ``messages_suppressed``), honour an installed
    ``fault_filter`` (drop / extra delay / duplicates) on every send, and
    route ``trace_ctx`` through :func:`stamp_trace_ctx` /
    :func:`deliver_traced` so causal tracing is backend-independent.

    Attributes every implementation exposes (the protocol layers read
    them directly):

    ``latency``
        A latency model with ``nominal_one_way_ms(src_site, dst_site)``
        — used by Pastry for proximity *estimates* even when real
        delivery does not consult it.
    ``recorder`` / ``fault_filter``
        Installed by the plane (observability) and the fault injector.
    ``messages_sent`` … ``per_host_bytes_in``
        The counter set behind the bandwidth/load experiments.
    """

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def attach(self, host: Any) -> int:
        """Register ``host``, assigning and returning its address."""

    @abc.abstractmethod
    def detach(self, host: Any) -> None:
        """Remove a host; traffic to it is dropped from now on."""

    @abc.abstractmethod
    def reattach(self, host: Any) -> None:
        """Crash-recover a detached host at its old (stable) address."""

    @abc.abstractmethod
    def host(self, address: int) -> Any:
        """The host object at ``address`` (raises when unknown)."""

    @abc.abstractmethod
    def has_host(self, address: int) -> bool:
        """Is ``address`` currently reachable?  This is the liveness
        probe protocol code uses (it models a TCP connect succeeding)."""

    @property
    @abc.abstractmethod
    def host_count(self) -> int:
        ...

    @abc.abstractmethod
    def hosts(self) -> Iterable[Any]:
        ...

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def send(self, src: Any, dst_address: int, msg: Message) -> None:
        """Deliver ``msg`` from ``src`` to ``dst_address`` asynchronously.

        Fire-and-forget with datagram semantics at the interface: loss
        is expressed to the sender only through its own protocol
        timeouts, which is what maps live connect/write failures onto
        the typed ``QueryError``/``QueryTimeout`` machinery unchanged.
        """

    @abc.abstractmethod
    def set_delivery_hook(self, hook: Optional[Callable[[Message], None]]) -> None:
        """Install an observer invoked on every delivery (tests/metrics)."""

    @abc.abstractmethod
    def reset_counters(self) -> None:
        """Zero the traffic counters (e.g. after warm-up)."""
