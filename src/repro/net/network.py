"""The simulated network: model-driven latency over the event heap."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

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
    adds only the carriage (:meth:`_carry`): the latency draw,
    same-instant coalescing and the optional codec shadow
    (``wire_check``); admission and arrival are the base class's.
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
        self._pending_batches: Dict[Tuple[int, float], List[Tuple[Any, int]]] = {}
        #: Codec shadow mode: every sent copy is encoded at the send and
        #: decoded at its delivery (then re-encoded, asserting byte
        #: identity), and the *decoded copy* is handed to the receiver,
        #: exactly as a real socket would.  A deterministic run then
        #: doubles as a wire-safety lint: a payload carrying
        #: unserializable state raises
        #: :class:`~repro.transport.codec.CodecError` at the precise send,
        #: and a protocol that relied on sender and receiver sharing one
        #: Python object — or that changed a payload after sending it —
        #: diverges from the sim-as-oracle run.
        self.wire_check = wire_check
        #: Protocol kinds observed crossing the (shadow) wire, labeled as
        #: ``route/<app>/<op>`` / ``direct/<app>/<kind>`` — the universe
        #: the wire-safety suite checks for coverage.
        self.wire_kinds_seen: Set[str] = set()
        #: Copies decoded at delivery so far.
        self.wire_checked = 0

    # ------------------------------------------------------------------
    # Carriage
    # ------------------------------------------------------------------
    #: The shared admission (:meth:`Transport.send`), bound in this class
    #: too, so ``Network.send`` is an entry point of its own (the
    #: benchmark's per-layer trace wraps it here as the ``net`` layer).
    send = Transport.send

    def _carry(self, src: Host, dst_host: Host, msg: Message, size: int,
               extra_delay: float) -> None:
        """One admitted copy: draw its latency and queue it on the heap,
        coalesced with whatever else reaches ``dst_host`` at that instant.
        Under ``wire_check`` the queued copy is the encoded body a socket
        would have written now, not the object."""
        delay = (self.latency.one_way_delay_ms(src.site, dst_host.site)
                 + self.processing_ms + extra_delay)
        # Exact float equality on the delivery instant is intended:
        # post() stamps the event with sim.now + delay, so two sends
        # coalesce iff they would have fired at the identical time.
        key = (dst_host.address, self.sim.now + delay)
        sent = (self._wire_encode(msg) if self.wire_check else msg, size)
        batch = self._pending_batches.get(key)
        if batch is None:
            self._pending_batches[key] = [sent]
            self.sim.post(delay, self._deliver_batch, key)
        else:
            batch.append(sent)

    def _deliver_batch(self, key: Tuple[int, float]) -> None:
        """Hand every copy coalesced under ``key`` to arrival, in send
        order (the batch only shares the heap event)."""
        batch = self._pending_batches.pop(key)
        if self.wire_check:
            batch = [(self._wire_decode(sent), size) for sent, size in batch]
        self._arrive(key[0], batch)

    @staticmethod
    def _wire_encode(msg: Message) -> Tuple[bytes, Optional[list]]:
        """``wire_check`` at the send: the bytes a socket would write (a
        payload the codec cannot carry raises here), plus the trace list."""
        from repro.transport.codec import encode_message

        return encode_message(msg), msg.trace

    def _wire_decode(self, sent: Tuple[bytes, Optional[list]]) -> Message:
        """``wire_check`` at the delivery: the decoded copy of the bytes
        written at the send (re-encoded byte-identical, or CodecError) —
        receivers see what a socket would give them."""
        from repro.faults.injector import protocol_kind
        from repro.transport.codec import decode_checked

        body, trace = sent
        decoded = decode_checked(body)
        self.wire_kinds_seen.add(protocol_kind(decoded))
        self.wire_checked += 1
        # The trace list is shared mutable state *by design* in the sim
        # (the sender observes appended hops); keep that contract while
        # still type-checking it through the codec.
        decoded.trace = trace
        return decoded
