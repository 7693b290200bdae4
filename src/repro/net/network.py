"""The simulated network: hosts, delivery, loss, and traffic accounting."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.net.latency import LatencyModel, UniformLatencyModel
from repro.net.message import Message
from repro.net.site import Site
from repro.sim.engine import Simulator
from repro.transport.base import Transport, deliver_traced, stamp_trace_ctx


class NetworkError(RuntimeError):
    """Raised for invalid network operations (unknown address, detached host)."""


@dataclass
class FaultDecision:
    """Verdict of a fault filter for one message send.

    ``drop`` wins over everything; otherwise the message is delivered
    ``1 + duplicates`` times, each copy with its own latency draw plus
    ``extra_delay_ms``.  Returned by the injector's ``on_send`` hook; the
    network keeps its conservation counters consistent for every verdict.
    """

    drop: bool = False
    extra_delay_ms: float = 0.0
    duplicates: int = 0

#: Signature of the per-send fault hook: (src, dst, msg) -> decision or None.
FaultFilter = Callable[["Host", "Host", Message], Optional[FaultDecision]]


class Host:
    """Base class for anything attachable to the network.

    Subclasses override :meth:`on_message`.  The address is assigned by
    :meth:`Network.attach`.
    """

    def __init__(self, site: Site):
        self.site = site
        self.address: Optional[int] = None
        self.network: Optional["Network"] = None
        self.alive = True

    def on_message(self, msg: Message) -> None:
        raise NotImplementedError

    def send(self, dst_address: int, msg: Message) -> None:
        """Send ``msg`` to another host; delivery is scheduled by the network."""
        if self.network is None:
            raise NetworkError("host not attached to a network")
        self.network.send(self, dst_address, msg)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} addr={self.address} site={self.site.name}>"


class Network(Transport):
    """Delivers messages between hosts with model-driven latency.

    The reference :class:`~repro.transport.base.Transport`: delivery is a
    simulated heap event, which makes this backend the deterministic
    oracle the live socket transport is validated against.

    Also the system's measurement point: per-host message/byte counters feed
    the load-balance and bandwidth experiments (Fig. 8b and the centralized
    ablation).
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        loss_rng: Optional[random.Random] = None,
        processing_ms: float = 0.0,
        wire_check: bool = False,
    ):
        if loss_rate and loss_rng is None:
            raise NetworkError("loss_rate requires a loss_rng for determinism")
        self.sim = sim
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
        self.latency = latency if latency is not None else UniformLatencyModel()
        self.loss_rate = loss_rate
        self._loss_rng = loss_rng
        #: Fixed receiver-side processing delay added to every delivery —
        #: approximates host cost (the paper's JVMs shared 2-core VMs
        #: 100:1, which dominates its local-site latencies).
        self.processing_ms = processing_ms
        self._hosts: Dict[int, Host] = {}
        self._next_address = 0
        # Accounting.  Conservation invariant (chaos suite checks it):
        #   messages_sent == messages_delivered + messages_dropped + messages_in_flight
        # holds at every instant; sends from detached (crashed) hosts are
        # suppressed outside the equation (messages_suppressed).
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
        #: Per-send fault hook installed by a FaultInjector (None = healthy).
        self.fault_filter: Optional[FaultFilter] = None
        #: Span recorder installed by the plane when tracing is enabled
        #: (None = tracing off).  The network is the propagation point: it
        #: stamps outgoing messages with the sender's current context and
        #: restores that context around each delivery.
        self.recorder = None

    # ------------------------------------------------------------------
    # Latency
    # ------------------------------------------------------------------
    @property
    def latency(self) -> LatencyModel:
        return self._latency

    @latency.setter
    def latency(self, model: LatencyModel) -> None:
        # Deterministic models (no jitter) are pure functions of the site
        # pair, so the per-send delay lookup collapses to one dict get.
        # The memo is keyed by the (hashable, frozen) Site objects and is
        # rebuilt whenever the model is swapped; jittered models disable it.
        self._latency = model
        deterministic = getattr(model, "is_deterministic", None)
        if deterministic is not None and deterministic():
            self._lat_memo: Optional[Dict[Tuple[Site, Site], float]] = {}
        else:
            self._lat_memo = None

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
        return address

    def detach(self, host: Host) -> None:
        """Remove a host; in-flight messages to it are dropped on delivery."""
        if host.address in self._hosts:
            del self._hosts[host.address]
        host.alive = False

    def reattach(self, host: Host) -> None:
        """Crash-recover a previously detached host at its old address.

        The address is stable across the outage, so peers' routing state
        remains valid; messages sent while the host was down stay dropped.
        """
        if host.address is None:
            raise NetworkError("cannot reattach a host that was never attached")
        occupant = self._hosts.get(host.address)
        if occupant is not None and occupant is not host:
            raise NetworkError(f"address {host.address} is already occupied")
        self._hosts[host.address] = host
        host.network = self
        host.alive = True

    def host(self, address: int) -> Host:
        """Look up the host at ``address`` (NetworkError if unknown)."""
        try:
            return self._hosts[address]
        except KeyError:
            raise NetworkError(f"no host at address {address}") from None

    def has_host(self, address: int) -> bool:
        return address in self._hosts

    @property
    def host_count(self) -> int:
        return len(self._hosts)

    def hosts(self):
        return self._hosts.values()

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def send(self, src: Host, dst_address: int, msg: Message) -> None:
        """Schedule delivery of ``msg`` from ``src`` to ``dst_address``."""
        if not src.alive or self._hosts.get(src.address) is not src:
            # A crashed host sends nothing: callbacks it scheduled before
            # the crash (flush timers, retries) must not leak onto the wire.
            self.messages_suppressed += 1
            return
        msg.src = src.address
        msg.dst = dst_address
        stamp_trace_ctx(self.recorder, msg)
        self.messages_sent += 1
        size = msg.size_bytes()
        self.bytes_sent += size
        self.per_host_sent[src.address] += 1
        if self.loss_rate and self._loss_rng.random() < self.loss_rate:
            self.messages_dropped += 1
            return
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
                copies += decision.duplicates
        memo = self._lat_memo
        if memo is not None:
            pair = (src.site, dst_host.site)
            base_delay = memo.get(pair)
            if base_delay is None:
                base_delay = self._latency.one_way_delay_ms(src.site,
                                                            dst_host.site)
                memo[pair] = base_delay
        else:
            base_delay = None
        for copy in range(copies):
            if copy:  # duplicates are extra wire packets: account them
                self.messages_sent += 1
                self.bytes_sent += size
                self.per_host_sent[src.address] += 1
            if base_delay is not None:
                delay = base_delay + self.processing_ms + extra_delay
            else:
                delay = (self._latency.one_way_delay_ms(src.site, dst_host.site)
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
        hosts = self._hosts
        wire_check = self.wire_check
        for msg, size in self._pending_batches.pop(key):
            if wire_check:
                msg = self._wire_copy(msg)
            self.messages_in_flight -= 1
            host = hosts.get(dst_address)
            if host is None or not host.alive:
                # In-flight to a host that crashed mid-transit: dropped
                # exactly once here, mirroring the send-time
                # unknown-destination path.
                self.messages_dropped += 1
                continue
            self.messages_delivered += 1
            self.per_host_received[dst_address] += 1
            self.per_host_bytes_in[dst_address] += size
            if msg.trace is not None:
                msg.trace.append(dst_address)
            # Restore the sender's causal context for the duration of the
            # handler, so spans it opens parent under the causing span.
            # The shared helper keeps the push/pop balanced identically
            # for sim and wire deliveries; the tracing-off hot path is
            # ``_dispatch`` inlined, saving a call frame per message.
            recorder = self.recorder
            if recorder is None or not recorder.enabled or msg.trace_ctx is None:
                hook = self._delivery_hook
                if hook is not None:
                    hook(msg)
                host.on_message(msg)
            else:
                deliver_traced(recorder, msg, partial(self._dispatch, host, msg))

    def _dispatch(self, host: Host, msg: Message) -> None:
        if self._delivery_hook is not None:
            self._delivery_hook(msg)
        host.on_message(msg)

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

    def set_delivery_hook(self, hook: Optional[Callable[[Message], None]]) -> None:
        """Install an observer invoked on every delivery (tests/metrics)."""
        self._delivery_hook = hook

    def reset_counters(self) -> None:
        """Zero all traffic counters (e.g. after warm-up, before measuring).

        ``messages_in_flight`` is a gauge, not a counter: it tracks packets
        currently scheduled for delivery and is left untouched — but the
        conservation identity only holds again once those drain, so callers
        comparing sent/delivered/dropped should reset at a quiet moment.
        """
        self.messages_sent = self.messages_in_flight
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_suppressed = 0
        self.bytes_sent = 0
        self.per_host_received.clear()
        self.per_host_sent.clear()
        self.per_host_bytes_in.clear()
