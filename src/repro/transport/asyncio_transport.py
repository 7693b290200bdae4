"""Live transport: every node a real TCP endpoint on an asyncio loop.

Each *served* host gets its own listening socket; sends encode the
message through the wire codec and write length-prefixed frames over
per-destination connections (lazy connect, bounded retries with backoff,
timeouts).  Membership, admission, arrival and the traffic accounting
are inherited from :class:`~repro.transport.base.Transport` — the same
code the DES network runs — so this file holds only sockets, and the
whole protocol stack runs on top unchanged, driven by a
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
import random
from collections import Counter
from functools import partial
from typing import Any, Dict, Optional, Set

from repro.net.latency import LatencyModel
from repro.net.message import Message
from repro.transport.base import Host, Transport
from repro.transport.codec import CodecError, decode_message, encode_frame
from repro.transport.realtime import RealtimeScheduler


class _Peer:
    """Outgoing state toward one destination address."""

    __slots__ = ("queue", "task", "writer")

    def __init__(self) -> None:
        self.queue: asyncio.Queue = asyncio.Queue()
        self.task: Optional[asyncio.Task] = None
        self.writer: Optional[asyncio.StreamWriter] = None


class AsyncioTransport(Transport):
    """Real-socket :class:`Transport` (see module docstring)."""

    def __init__(
        self,
        scheduler: RealtimeScheduler,
        latency: Optional[LatencyModel] = None,
        bind_host: str = "127.0.0.1",
        loss_rate: float = 0.0,
        loss_rng: Optional[random.Random] = None,
        processing_ms: float = 0.0,
        connect_timeout_s: float = 1.0,
        connect_retries: int = 3,
        connect_backoff_s: float = 0.2,
        peer_plan: Optional[Any] = None,
    ):
        super().__init__(scheduler, latency, loss_rate, loss_rng, processing_ms)
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
            self._start_server(address)

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

    def _start_server(self, address: int) -> None:
        async def _bind() -> None:
            try:
                server = await asyncio.start_server(
                    partial(self._serve_conn, address),
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

    async def _serve_conn(self, address: int,
                          reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                header = await reader.readexactly(4)
                body = await reader.readexactly(int.from_bytes(header, "big"))
                self._deliver_body(address, body)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            pass  # teardown: finish cleanly instead of logging a cancel
        finally:
            try:
                writer.close()
            except RuntimeError:
                pass  # loop already closed during interpreter teardown

    # ------------------------------------------------------------------
    # Delivery (receive side)
    # ------------------------------------------------------------------
    def _deliver_body(self, address: int, body: bytes) -> None:
        if self._track_inflight:
            self.messages_in_flight -= 1
        try:
            msg = decode_message(body)
        except CodecError as exc:
            self.messages_dropped += 1
            self.sim.report_error(exc)
            return
        try:
            self._arrive(address, msg, msg.size_bytes())
        except BaseException as exc:  # handler bug: fail the pump loudly
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
        _dst_host, size, extra_delay, copies = admitted
        body = encode_frame(msg)  # CodecError here is a bug: let it raise
        for _ in range(copies):
            self.messages_in_flight += 1
            self.wire_bytes_sent += len(body)
            if extra_delay > 0.0:
                self.sim.schedule(extra_delay, self._enqueue,
                                  dst_address, body, size)
            else:
                self._enqueue(dst_address, body, size)

    def _enqueue(self, dst_address: int, body: bytes, size: int) -> None:
        peer = self._peers.get(dst_address)
        if peer is None:
            peer = self._peers[dst_address] = _Peer()
        peer.queue.put_nowait((body, size))
        if peer.task is None or peer.task.done():
            peer.task = self.loop.create_task(self._sender(dst_address, peer))

    def _account_drop(self) -> None:
        self.messages_in_flight -= 1
        self.messages_dropped += 1

    async def _sender(self, dst_address: int, peer: _Peer) -> None:
        """Drain one destination's frame queue over a cached connection."""
        while True:
            try:
                body, size = peer.queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            writer = await self._writer_for(dst_address, peer)
            if writer is None:
                self._account_drop()
                continue
            try:
                writer.write(body)
                await writer.drain()
            except (ConnectionError, OSError):
                self._drop_writer(dst_address)
                # The connection died under us: one fresh connect, then
                # give up on this frame (the sender's timeouts take over).
                writer = await self._writer_for(dst_address, peer)
                if writer is None:
                    self._account_drop()
                    continue
                try:
                    writer.write(body)
                    await writer.drain()
                except (ConnectionError, OSError):
                    self._drop_writer(dst_address)
                    self._account_drop()
                    continue
            if not self._track_inflight:
                self.messages_in_flight -= 1  # handed to the TCP stack

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
        return all(peer.queue.empty() for peer in self._peers.values())

    def reset_counters(self) -> None:
        super().reset_counters()
        self.wire_bytes_sent = 0

    def close(self) -> None:
        """Close every connection and server (idempotent, best-effort)."""
        async def _shutdown() -> None:
            for peer in self._peers.values():
                if peer.task is not None:
                    peer.task.cancel()
                if peer.writer is not None:
                    peer.writer.close()
            for server in self._servers.values():
                server.close()
            await asyncio.sleep(0)

        if self.loop.is_closed():
            return
        if self.loop.is_running():
            self.loop.create_task(_shutdown())
        else:
            self.loop.run_until_complete(_shutdown())
        self._servers.clear()
        self._peers.clear()
