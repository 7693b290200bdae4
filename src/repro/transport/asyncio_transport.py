"""Live transport: every node a real TCP endpoint on an asyncio loop.

Each *served* host gets its own listening socket, read by an
:class:`asyncio.BufferedProtocol` (``recv_into`` one reused buffer →
``codec.split_frames``, which enforces ``MAX_FRAME_BYTES`` → the total
decoder: whatever arrives ends as a delivery or a counted drop).  Sends
encode the message through the wire codec and queue the frame for a
resident per-destination sender (lazy connect, bounded retries with
backoff, timeouts) that writes each burst as one ``write`` + ``drain``;
a full queue is a counted drop.  Membership, admission, arrival and the
traffic accounting are inherited from :class:`~repro.transport.base.
Transport` — the same code the DES network runs — so this file holds only
sockets, and the whole protocol stack runs on top unchanged, driven by a
:class:`~repro.transport.realtime.RealtimeScheduler`.

Failure mapping: the interface keeps datagram semantics, so a refused
connect, a reset, an exhausted retry budget, or a deliberate
:meth:`cut` all account the frame as *dropped* — the sender finds out
through its own protocol timeouts, which is precisely how the existing
typed ``QueryError``/``QueryTimeout`` retry machinery absorbs real
network failures without a single protocol change.

Two deployment shapes share this class:

* **in-process** (``peer_plan=None``): every attached host is served
  locally on an ephemeral port; all traffic still crosses real sockets
  and the codec.  This is the test / oracle-validation mode.
* **partitioned** (``rbay serve``): every process builds the same
  deterministic plane from the shared seed, but only *owns* the sites
  given in the peer plan.  Non-owned hosts are shadows — their sends are
  suppressed (exactly one process, the owner, performs each action for
  real) and frames to them route to the owning process's sockets at
  deterministically planned ports.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from functools import partial
from typing import Any, Dict, List, Optional, Set

from repro.net.latency import LatencyModel
from repro.net.message import Message
from repro.transport.base import Host, Transport
from repro.transport.codec import (CodecError, decode_message, encode_frame,
                                   split_frames)
from repro.transport.realtime import RealtimeScheduler

#: Frames one destination may have queued behind its sender.  A peer whose
#: connect hangs must not grow memory without limit: overflow is a counted
#: drop, which the protocol's timeouts and retries already absorb.
_PEER_QUEUE_FRAMES = 4096

#: The receive buffer every connection of a transport reads into (reads
#: are synchronous inside one loop callback, so one buffer serves all).
_RECV_BUFFER_BYTES = 64 * 1024


class _Peer:
    """Outgoing state toward one destination address."""

    __slots__ = ("frames", "ready", "task", "writer")

    def __init__(self) -> None:
        self.frames: List[bytes] = []
        self.ready = asyncio.Event()  # set by _enqueue, awaited by _sender
        self.task: Optional[asyncio.Task] = None
        self.writer: Optional[asyncio.StreamWriter] = None


class _Receiver(asyncio.BufferedProtocol):
    """One accepted connection: socket bytes → frames → ``_deliver_body``."""

    def __init__(self, net: "AsyncioTransport", address: int) -> None:
        self._net = net
        self._address = address
        self._pending = bytearray()  # the tail of a frame still arriving

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport
        self._net._accepted.add(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._net._accepted.discard(self._transport)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._net._recv_view

    def buffer_updated(self, nbytes: int) -> None:
        net = self._net
        self._pending += net._recv_view[:nbytes]
        try:
            bodies = split_frames(self._pending)
        except CodecError as exc:
            # A length prefix over the cap: the stream cannot be framed
            # any further, so it ends here, accounted like a bad frame.
            net._reject(exc)
            self._transport.close()
            return
        for body in bodies:
            net._deliver_body(self._address, body)


class AsyncioTransport(Transport):
    """Real-socket :class:`Transport` (see module docstring)."""

    def __init__(
        self,
        scheduler: RealtimeScheduler,
        latency: Optional[LatencyModel] = None,
        bind_host: str = "127.0.0.1",
        processing_ms: float = 0.0,
        connect_timeout_s: float = 1.0,
        connect_retries: int = 3,
        connect_backoff_s: float = 0.2,
        peer_plan: Optional[Any] = None,
    ):
        super().__init__(scheduler, latency, processing_ms)
        self.loop = scheduler.loop
        self.bind_host = bind_host
        self.connect_timeout_s = connect_timeout_s
        self.connect_retries = connect_retries
        self.connect_backoff_s = connect_backoff_s
        #: None → in-process mode; else a PeerPlan (owned sites + remote
        #: endpoint arithmetic) for the partitioned ``serve`` mode.
        self.peer_plan = peer_plan
        #: In-flight is a closed loop only when both endpoints share this
        #: process; partitioned processes settle a frame once it is
        #: handed to the TCP stack.
        self._track_inflight = peer_plan is None

        #: Addresses this process serves for real; the rest are shadows.
        self._served: Set[int] = set()
        self._site_counts: Counter = Counter()
        self._site_index: Dict[int, tuple] = {}  # addr -> (site name, index)
        self._ports: Dict[int, int] = {}
        self._servers: Dict[int, asyncio.base_events.Server] = {}
        self._peers: Dict[int, _Peer] = {}
        self._blackholed: Set[int] = set()
        self._accepted: Set[asyncio.BaseTransport] = set()  # inbound
        self._recv_view = memoryview(bytearray(_RECV_BUFFER_BYTES))

        #: Actual framed bytes written to sockets (``bytes_sent`` keeps
        #: the sim estimator for parity; this is the true wire volume).
        self.wire_bytes_sent = 0

        scheduler.add_idle_source(self._wire_quiet)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def _host_up(self, host: Host) -> None:
        address = host.address
        if address not in self._site_index:  # first attach: plan its endpoint
            site_name = host.site.name
            index = self._site_counts[site_name]
            self._site_counts[site_name] = index + 1
            self._site_index[address] = (site_name, index)
            if self.peer_plan is None or site_name in self.peer_plan.owned:
                self._served.add(address)
        # Reattaching a host whose server never stopped (it was flagged
        # dead, or was not down at all) must not bind its port twice.
        if address in self._served and address not in self._servers:
            self._listen(address)

    def _host_down(self, host: Host) -> None:
        server = self._servers.pop(host.address, None)
        if server is not None:
            server.close()
        self._drop_writer(host.address)

    def port_of(self, address: int) -> Optional[int]:
        """The TCP port a served host listens on (None for shadows)."""
        return self._ports.get(address)

    # ------------------------------------------------------------------
    # Servers
    # ------------------------------------------------------------------
    def _planned_port(self, address: int) -> int:
        if address in self._ports:  # reattach: keep the stable port
            return self._ports[address]
        if self.peer_plan is not None:
            site_name, index = self._site_index[address]
            return self.peer_plan.endpoint(site_name, index)[1]
        return 0  # ephemeral

    def _listen(self, address: int) -> None:
        async def _bind() -> None:
            try:
                server = await self.loop.create_server(
                    partial(_Receiver, self, address),
                    host=self.bind_host, port=self._planned_port(address))
            except OSError as exc:
                self.sim.report_error(exc)
                return
            self._servers[address] = server
            self._ports[address] = server.sockets[0].getsockname()[1]

        if self.loop.is_running():
            self.loop.create_task(_bind())
        else:
            self.loop.run_until_complete(_bind())

    # ------------------------------------------------------------------
    # Delivery (receive side)
    # ------------------------------------------------------------------
    def _deliver_body(self, address: int, body: bytes) -> None:
        try:
            msg = decode_message(body)
        except CodecError as exc:
            self._reject(exc)
            return
        if self._track_inflight:
            self.messages_in_flight -= 1
        try:
            self._arrive(address, msg, msg.size_bytes())
        except BaseException as exc:  # handler bug: fail the pump loudly
            self.sim.report_error(exc)
        self.sim.kick()  # a handler ran: the pump re-checks its predicate

    def _reject(self, exc: CodecError) -> None:
        """Arrived bytes that cannot become a message: a counted drop the
        pump hears about."""
        if self._track_inflight:
            self.messages_in_flight -= 1
        self.messages_dropped += 1
        self.sim.report_error(exc)

    # ------------------------------------------------------------------
    # Send side
    # ------------------------------------------------------------------
    def send(self, src: Host, dst_address: int, msg: Message) -> None:
        # In partitioned mode the admission gate also suppresses shadows —
        # the owning process performs the action for real, exactly once.
        admitted = self._admit(src, dst_address, msg,
                               src.address in self._served)
        if admitted is None:
            return
        _dst_host, _size, extra_delay, copies = admitted
        body = encode_frame(msg)  # CodecError here is a bug: let it raise
        for _ in range(copies):
            self.messages_in_flight += 1
            self.wire_bytes_sent += len(body)
            if extra_delay > 0.0:
                self.sim.schedule(extra_delay, self._enqueue,
                                  dst_address, body)
            else:
                self._enqueue(dst_address, body)

    def _enqueue(self, dst_address: int, body: bytes) -> None:
        peer = self._peers.get(dst_address)
        if peer is None:
            peer = self._peers[dst_address] = _Peer()
            peer.task = self.loop.create_task(self._sender(dst_address, peer))
        if len(peer.frames) >= _PEER_QUEUE_FRAMES:
            self._account_drop()
            return
        peer.frames.append(body)
        peer.ready.set()

    def _account_drop(self, frames: int = 1) -> None:
        self.messages_in_flight -= frames
        self.messages_dropped += frames

    async def _sender(self, dst_address: int, peer: _Peer) -> None:
        """Resident writer for one destination: everything queued since
        the last pass leaves as one ``write`` + one ``drain``."""
        while True:
            if not peer.frames:
                peer.ready.clear()
                await peer.ready.wait()
                continue
            # Connect before taking the burst: while a connect hangs the
            # frames wait in the bounded queue, not in a local.
            writer = await self._writer_for(dst_address, peer)
            burst, peer.frames = peer.frames, []
            retried = False
            while writer is not None:
                try:
                    writer.write(b"".join(burst))
                    await writer.drain()
                    break
                except (ConnectionError, OSError):
                    # The connection died under us: one fresh connect,
                    # then give up (the senders' timeouts take over).
                    self._drop_writer(dst_address)
                    writer = (None if retried else
                              await self._writer_for(dst_address, peer))
                    retried = True
            if writer is None:
                self._account_drop(len(burst))
            elif not self._track_inflight:
                self.messages_in_flight -= len(burst)  # handed to TCP

    async def _writer_for(self, dst_address: int,
                          peer: _Peer) -> Optional[asyncio.StreamWriter]:
        if peer.writer is not None and not peer.writer.is_closing():
            return peer.writer
        endpoint = self._endpoint(dst_address)
        if endpoint is None:
            return None
        for attempt in range(self.connect_retries + 1):
            if dst_address in self._blackholed:
                return None
            try:
                _reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(*endpoint),
                    timeout=self.connect_timeout_s)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                if attempt < self.connect_retries:
                    await asyncio.sleep(self.connect_backoff_s * (attempt + 1))
                continue
            peer.writer = writer
            return writer
        return None

    def _endpoint(self, dst_address: int) -> Optional[tuple]:
        if dst_address in self._blackholed:
            return None
        port = self._ports.get(dst_address)
        if port is not None:
            return (self.bind_host, port)
        if self.peer_plan is not None:
            site_name, index = self._site_index[dst_address]
            return self.peer_plan.endpoint(site_name, index)
        return None

    def _drop_writer(self, dst_address: int) -> None:
        peer = self._peers.get(dst_address)
        if peer is not None and peer.writer is not None:
            peer.writer.close()
            peer.writer = None

    # ------------------------------------------------------------------
    # Induced failures (tests / chaos)
    # ------------------------------------------------------------------
    def cut(self, address: int) -> None:
        """Sever this process's connectivity *to* ``address``: existing
        connections are closed and new connects are refused, so every
        frame toward it drops — the live analogue of a link cut."""
        self._blackholed.add(address)
        self._drop_writer(address)

    def heal(self, address: int) -> None:
        self._blackholed.discard(address)

    # ------------------------------------------------------------------
    # Observation / lifecycle
    # ------------------------------------------------------------------
    def _wire_quiet(self) -> bool:
        if self.messages_in_flight != 0:
            return False
        return not any(peer.frames for peer in self._peers.values())

    def reset_counters(self) -> None:
        super().reset_counters()
        self.wire_bytes_sent = 0

    def close(self) -> None:
        """Close every connection and server (idempotent, best-effort)."""
        async def _shutdown() -> None:
            for address, peer in self._peers.items():
                peer.task.cancel()  # the resident sender
                self._drop_writer(address)
            for server in self._servers.values():
                server.close()
            for transport in list(self._accepted):
                transport.close()
            await asyncio.sleep(0)

        if self.loop.is_closed():
            return
        if self.loop.is_running():
            self.loop.create_task(_shutdown())
        else:
            self.loop.run_until_complete(_shutdown())
        self._servers.clear()
        self._peers.clear()
