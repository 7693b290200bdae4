"""The simulated network: model-driven latency over the event heap."""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.net.latency import LatencyModel
from repro.net.message import Message
from repro.sim.engine import Simulator
from repro.transport.base import (FaultDecision, FaultFilter, Host,
                                  NetworkError, Transport)

#: The contract's types live with ``Transport``; importable from here too.
__all__ = ["FaultDecision", "FaultFilter", "Host", "Network", "NetworkError"]


class Network(Transport):
    """Delivers messages between hosts with model-driven latency.

    The reference :class:`~repro.transport.base.Transport`: delivery is a
    simulated heap event, which makes this backend the deterministic
    oracle the live socket transport is validated against.  This class
    adds only the carriage: the latency draw, same-instant coalescing
    and the optional codec shadow (``wire_check``).
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        processing_ms: float = 0.0,
        wire_check: bool = False,
    ):
        super().__init__(sim, latency, processing_ms)
        #: Messages bound for the same destination at the exact same
        #: delivery time share one scheduled event: a burst of N same-time
        #: sends to a host costs one heap operation instead of N.
        #: Per-message accounting (counters, hooks, trace contexts) is
        #: unchanged — only the scheduling is shared.
        self._pending_batches: Dict[Tuple[int, float], List[Tuple[Message, int]]] = {}
        #: Codec shadow mode: every delivered message is pushed through the
        #: wire codec (encode → decode → re-encode, asserting byte identity)
        #: and the *decoded copy* is handed to the receiver, exactly as a
        #: real socket would.  A deterministic run then doubles as a
        #: wire-safety lint: a payload carrying unserializable state raises
        #: :class:`~repro.transport.codec.CodecError` at the precise
        #: delivery, and a protocol that relied on sender and receiver
        #: sharing one Python object diverges from the sim-as-oracle run.
        self.wire_check = wire_check
        #: Protocol kinds observed crossing the (shadow) wire, labeled as
        #: ``route/<app>/<op>`` / ``direct/<app>/<kind>`` — the universe
        #: the wire-safety suite checks for coverage.
        self.wire_kinds_seen: Set[str] = set()
        #: Messages round-tripped through the codec so far.
        self.wire_checked = 0

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def send(self, src: Host, dst_address: int, msg: Message,
             size: Optional[int] = None) -> None:
        """Schedule delivery of ``msg`` from ``src`` to ``dst_address``."""
        admitted = self._admit(src, dst_address, msg, size=size)
        if admitted is None:
            return
        dst_host, size, extra_delay, copies = admitted
        for _ in range(copies):
            delay = (self.latency.one_way_delay_ms(src.site, dst_host.site)
                     + self.processing_ms + extra_delay)
            self.messages_in_flight += 1
            # Exact float equality on the delivery instant is intended:
            # post() stamps the event with sim.now + delay, so two sends
            # coalesce iff they would have fired at the identical time.
            key = (dst_address, self.sim.now + delay)
            batch = self._pending_batches.get(key)
            if batch is None:
                self._pending_batches[key] = [(msg, size)]
                self.sim.post(delay, self._deliver_batch, key)
            else:
                batch.append((msg, size))

    def _deliver_batch(self, key: Tuple[int, float]) -> None:
        """Deliver every message coalesced under ``key``, in send order.

        The batch only shares the heap event: counter updates stay exact
        per message (a handler may crash the destination mid-batch, and
        the sanitizer's conservation invariant must hold at every instant).
        """
        dst_address = key[0]
        arrive = self._arrive
        wire_check = self.wire_check
        for msg, size in self._pending_batches.pop(key):
            if wire_check:
                msg = self._wire_copy(msg)
            self.messages_in_flight -= 1
            arrive(dst_address, msg, size)

    def _wire_copy(self, msg: Message) -> Message:
        """``wire_check``: round-trip ``msg`` through the codec and return
        the decoded copy — receivers see what a socket would give them."""
        from repro.faults.injector import protocol_kind
        from repro.transport.codec import roundtrip_check

        decoded, _body = roundtrip_check(msg)
        self.wire_kinds_seen.add(protocol_kind(msg))
        self.wire_checked += 1
        # The trace list is shared mutable state *by design* in the sim
        # (the sender observes appended hops); keep that contract while
        # still type-checking it through the codec.
        decoded.trace = msg.trace
        return decoded
