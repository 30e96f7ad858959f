"""A real inter-process transport: asyncio TCP with framed exchanges.

:class:`TcpTransport` carries the same :class:`~repro.simnet.message`
traffic as the simulator, but across genuine OS processes over
localhost (or any) TCP.  One transport hosts exactly one address
space; its event loop runs on a dedicated daemon thread so the
runtimes above stay fully synchronous — ``endpoint.send`` blocks the
calling thread exactly as a simulated delivery does.

Reliability mirrors the classic Birrell-Nelson machinery the simulator
models (and the acceptance tests inject faults to prove it):

* every exchange carries a per-sender exchange id; the sender
  retransmits on timeout with exponential backoff
  (:class:`~repro.transport.base.RetryPolicy`);
* the receiver suppresses duplicates through the shared
  :class:`~repro.transport.base.ReplyCache` keyed by
  ``(sender, exchange id)`` plus an in-flight table, so handler side
  effects stay exactly-once per logical send however many
  retransmissions (or duplicated frames) arrive;
* connections are pooled and reused; a versioned handshake
  (:mod:`repro.transport.framing`) rejects incompatible peers at
  connect time.

Because a callee blocked inside a handler routinely issues nested
exchanges back to its caller (fault-driven data requests, callbacks),
handlers run on a worker-thread pool while the event loop keeps
serving — the process is always able to answer incoming requests even
while one of its own calls is outstanding.

Statistics and trace events are recorded into the transport's shared
:class:`~repro.simnet.stats.StatsCollector` with the same structured
shapes as the simulator's, so recorded real runs replay through
:mod:`repro.analysis.trace_rules` unchanged.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.simnet.clock import CostModel, SimClock
from repro.simnet.message import Message, MessageKind
from repro.simnet.stats import StatsCollector
# FaultInjector, the handshake timeout and the two error types live in
# base.py (both real carriers share them); importing them here keeps
# ``from repro.transport.tcp import FaultInjector`` working.
from repro.transport.base import (
    HANDSHAKE_TIMEOUT,
    Endpoint,
    FaultInjector,
    HandshakeError,
    RemoteHandlerError,
    RetryPolicy,
    Transport,
    TransportError,
)
from repro.transport.framing import (
    PROTOCOL_VERSION,
    STATUS_HANDLER_ERROR,
    STATUS_OK,
    FramingError,
    Goodbye,
    Hello,
    Ping,
    Pong,
    Reply,
    Request,
    Welcome,
    clock_to_wire,
    decode_frame,
    encode_frame,
    frame_length,
)
from repro.transport.wallclock import WallClock

#: Idle connections kept per peer for reuse.
POOL_SIZE = 4


class TcpEndpoint(Endpoint):
    """The one address space a :class:`TcpTransport` hosts."""

    def __init__(
        self,
        site_id: str,
        transport: "TcpTransport",
        reply_cache_limit: int = 4096,
    ) -> None:
        super().__init__(site_id, reply_cache_limit=reply_cache_limit)
        self.transport = transport

    def send(
        self,
        dst: str,
        kind: MessageKind,
        payload: bytes,
        reply_kind: Optional[MessageKind] = None,
        timeout: Optional[float] = None,
    ) -> bytes:
        """Run one framed exchange with ``dst``; blocks until replied."""
        return self.transport.exchange(
            dst, kind, payload, reply_kind, timeout=timeout
        )


class _Connection:
    """One pooled TCP connection to (or from) a peer."""

    def __init__(
        self,
        peer: Optional[str],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.peer = peer
        self.reader = reader
        self.writer = writer
        self.alive = True
        self.pending: Dict[int, asyncio.Future] = {}
        self.pings: Dict[int, asyncio.Future] = {}
        self.pump_task: Optional[asyncio.Task] = None
        self._write_lock = asyncio.Lock()

    async def write(self, data: bytes) -> None:
        async with self._write_lock:
            self.writer.write(data)
            await self.writer.drain()

    def abort(self, error: Exception) -> None:
        """Mark dead and fail every outstanding waiter."""
        self.alive = False
        for waiter in list(self.pending.values()):
            if not waiter.done():
                waiter.set_exception(error)
        self.pending.clear()
        for waiter in list(self.pings.values()):
            if not waiter.done():
                waiter.set_exception(error)
        self.pings.clear()
        try:
            self.writer.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass


class TcpTransport(Transport):
    """Length-prefixed, retried, at-most-once exchanges over TCP.

    One instance per OS process (or per simulated "process" when tests
    run several transports inside one interpreter).  ``peers`` maps
    site ids to ``(host, port)``; unknown destinations are resolved
    through the site directory at ``directory_site`` when configured
    (see :mod:`repro.namesvc.directory`).
    """

    def __init__(
        self,
        site_id: str,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        clock=None,
        cost_model: Optional[CostModel] = None,
        stats: Optional[StatsCollector] = None,
        peers: Optional[Dict[str, Tuple[str, int]]] = None,
        directory_site: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultInjector] = None,
        reply_cache_limit: int = 4096,
        max_workers: int = 32,
        listen: bool = True,
        protocol_version: int = PROTOCOL_VERSION,
        accept_versions: Optional[Iterable[int]] = None,
    ) -> None:
        super().__init__(
            clock=clock if clock is not None else WallClock(),
            cost_model=cost_model,
            stats=stats,
        )
        self.site_id = site_id
        self._host = host
        self._port = port
        self._listen = listen
        self._peers = peers if peers is not None else {}
        self._directory_site = directory_site
        self._retry = retry if retry is not None else RetryPolicy()
        self._faults = faults
        self._protocol_version = protocol_version
        self._accept_versions = frozenset(
            accept_versions if accept_versions is not None
            else (protocol_version,)
        )
        self.endpoint = TcpEndpoint(
            site_id, self, reply_cache_limit=reply_cache_limit
        )
        self.address: Optional[Tuple[str, int]] = None
        self.retransmissions = 0
        self.dials: Dict[str, int] = {}
        # Exchange ids carry a random 32-bit incarnation in their high
        # half — Birrell-Nelson's per-boot conversation identifier.
        # Without it, a restarted process reusing a site id would
        # restart its counter at 1 and collide with the replies its
        # predecessor left in peers' duplicate-suppression caches.
        incarnation = int.from_bytes(os.urandom(4), "big")
        self._exchange_ids = itertools.count((incarnation << 32) | 1)
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix=f"rpc-{site_id}"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Dict[str, List[_Connection]] = {}
        self._inflight: Dict[Tuple[str, int], asyncio.Future] = {}
        self._server_tasks: Set[asyncio.Task] = set()
        self._server_conns: Set[_Connection] = set()
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> Optional[Tuple[str, int]]:
        """Start the event loop thread (and listener); return the bound
        ``(host, port)`` or ``None`` for a client-only transport."""
        if self._thread is not None:
            raise TransportError(
                f"transport for {self.site_id!r} already started"
            )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name=f"tcp-{self.site_id}",
            daemon=True,
        )
        self._thread.start()
        if self._listen:
            future = asyncio.run_coroutine_threadsafe(
                self._start_server(), self._loop
            )
            self.address = future.result(HANDSHAKE_TIMEOUT)
        return self.address

    async def _start_server(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._accept, self._host, self._port
        )
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]

    def close(self) -> None:
        """Close listener, connections and the event loop thread."""
        if self._closed or self._loop is None:
            return
        self._closed = True
        future = asyncio.run_coroutine_threadsafe(
            self._shutdown(), self._loop
        )
        try:
            future.result(HANDSHAKE_TIMEOUT)
        except Exception:  # pragma: no cover - teardown best effort
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(HANDSHAKE_TIMEOUT)
        self._executor.shutdown(wait=False)
        if not self._loop.is_running():
            self._loop.close()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._server_tasks):
            task.cancel()
        goodbye = encode_frame(Goodbye(self.site_id, "shutting down"))
        for pool in self._pool.values():
            for conn in pool:
                try:
                    await asyncio.wait_for(conn.write(goodbye), 0.2)
                except Exception:
                    pass
                conn.abort(ConnectionResetError("transport closed"))
        self._pool.clear()
        for conn in list(self._server_conns):
            conn.abort(ConnectionResetError("transport closed"))
        self._server_conns.clear()

    # -- peer addressing ------------------------------------------------------

    def add_peer(self, site_id: str, address: Tuple[str, int]) -> None:
        """Teach this transport where ``site_id`` listens."""
        self._peers[site_id] = tuple(address)

    async def _resolve(self, dst: str) -> Tuple[str, int]:
        address = self._peers.get(dst)
        if address is not None:
            return address
        if self._directory_site is not None and dst != self._directory_site:
            from repro.namesvc.directory import (
                decode_lookup_reply,
                encode_lookup,
            )

            payload = await self._exchange(
                self._directory_site,
                MessageKind.SITE_LOOKUP,
                encode_lookup(dst),
                MessageKind.DIR_REPLY,
            )
            host, port, _age = decode_lookup_reply(payload, dst)
            self._peers[dst] = (host, port)
            return host, port
        raise TransportError(
            f"site {self.site_id!r} has no route to {dst!r}"
        )

    # -- client side ----------------------------------------------------------

    def exchange(
        self,
        dst: str,
        kind: MessageKind,
        payload: bytes,
        reply_kind: Optional[MessageKind] = None,
        timeout: Optional[float] = None,
    ) -> bytes:
        """Blocking request/response exchange with at-most-once retries.

        ``timeout`` caps the *whole* exchange — connects, retransmits
        and all — failing it with :class:`TransportError` once elapsed
        instead of running the full retry schedule (the per-exchange
        guard of the session fault-tolerance layer).
        """
        if self._loop is None:
            raise TransportError(
                f"transport for {self.site_id!r} is not started"
            )
        if threading.current_thread() is self._thread:
            raise TransportError(
                "exchange() must not be called from the event loop thread"
            )
        future = asyncio.run_coroutine_threadsafe(
            self._exchange(dst, kind, payload, reply_kind, timeout),
            self._loop,
        )
        return future.result()

    async def _exchange(
        self,
        dst: str,
        kind: MessageKind,
        payload: bytes,
        reply_kind: Optional[MessageKind],
        cap: Optional[float] = None,
    ) -> bytes:
        deadline = (
            self._loop.time() + cap if cap is not None else None
        )
        address = await self._resolve(dst)
        exchange_id = next(self._exchange_ids)
        # Piggyback this site's vector clock on the request; the
        # responder merges it before running the handler.  The frame is
        # encoded once, so every retransmission carries the same clock.
        encoded = encode_frame(
            Request(
                exchange_id=exchange_id,
                src=self.site_id,
                dst=dst,
                kind=kind.value,
                expects_reply=reply_kind is not None,
                payload=payload,
                clock=clock_to_wire(self.endpoint.vclock.tick()),
            )
        )
        attempts = 0
        last_error: Optional[BaseException] = None
        for timeout in self._retry.timeouts():
            attempts += 1
            if deadline is not None:
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    raise TransportError(
                        f"{kind.value} exchange {self.site_id!r}->"
                        f"{dst!r} exceeded its {cap}s cap after "
                        f"{attempts - 1} attempt(s) ({last_error})"
                    )
                timeout = min(timeout, remaining)
            try:
                conn = await self._acquire(dst, address)
            except HandshakeError:
                raise
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                last_error = exc
                self.note_timeout(
                    f"connect to {dst!r} failed ({exc}); retrying",
                    site=self.site_id,
                )
                await asyncio.sleep(timeout)
                continue
            waiter = self._loop.create_future()
            conn.pending[exchange_id] = waiter
            action = (
                self._faults.request_action() if self._faults else None
            )
            try:
                message = Message(
                    src=self.site_id, dst=dst, kind=kind, payload=payload
                )
                if action == FaultInjector.DROP:
                    # Charged as sent, lost in transit — the simulator's
                    # lossy path does exactly this.
                    self.note_message(message, stamp=self._stamp())
                    self.stats.record_event(
                        self.clock.now,
                        "loss",
                        f"injected drop of {kind.value} "
                        f"{self.site_id}->{dst}",
                        data={"site": self.site_id},
                    )
                else:
                    await conn.write(encoded)
                    self.note_message(message, stamp=self._stamp())
                    if self._faults is not None and (
                        self._faults.crash_after_send(kind)
                    ):
                        # Planned death: the frame is on the wire (the
                        # peer will process it) but this process dies
                        # before its reply can land.
                        os._exit(FaultInjector.CRASH_EXIT_CODE)
                    if action == FaultInjector.DUPLICATE:
                        await conn.write(encoded)
                        self.note_message(message, stamp=self._stamp())
                reply = await asyncio.wait_for(waiter, timeout)
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                last_error = exc
                self.retransmissions += 1
                self.note_timeout(
                    f"{kind.value} exchange {self.site_id}->{dst} timed "
                    "out; retransmitting",
                    site=self.site_id,
                )
                conn.pending.pop(exchange_id, None)
                conn.abort(ConnectionResetError("exchange timed out"))
                continue
            finally:
                conn.pending.pop(exchange_id, None)
            await self._release(dst, conn)
            return self._finish(dst, kind, reply_kind, reply)
        raise TransportError(
            f"{kind.value} exchange {self.site_id!r}->{dst!r} failed "
            f"after {attempts} attempts ({last_error})"
        )

    def _stamp(self) -> Optional[dict]:
        """The endpoint's causal stamp, or None when tracing is off."""
        return self.endpoint.stamp() if self.stats.tracing else None

    def _finish(
        self,
        dst: str,
        kind: MessageKind,
        reply_kind: Optional[MessageKind],
        reply: Reply,
    ) -> bytes:
        # The reply piggybacks the responder's clock: merging it makes
        # everything the handler did happen-before this site's next
        # traced event.
        self.endpoint.vclock.merge(dict(reply.clock))
        if reply.status == STATUS_HANDLER_ERROR:
            raise RemoteHandlerError(
                f"{kind.value} handler at {dst!r} failed: "
                f"{reply.payload.decode('utf-8', 'replace')}"
            )
        if reply.status != STATUS_OK:
            raise TransportError(
                f"bad reply status {reply.status!r} from {dst!r}"
            )
        if reply_kind is None:
            if reply.payload:
                raise TransportError(
                    f"one-way {kind} message to {dst!r} produced a reply"
                )
            return b""
        self.note_message(
            Message(
                src=dst,
                dst=self.site_id,
                kind=reply_kind,
                payload=reply.payload,
            ),
            stamp=self._stamp(),
        )
        return reply.payload

    async def _acquire(
        self, dst: str, address: Tuple[str, int]
    ) -> _Connection:
        pool = self._pool.setdefault(dst, [])
        while pool:
            conn = pool.pop()
            if conn.alive:
                return conn
        return await self._dial(dst, address)

    async def _release(self, dst: str, conn: _Connection) -> None:
        if not conn.alive:
            return
        pool = self._pool.setdefault(dst, [])
        if len(pool) < POOL_SIZE:
            pool.append(conn)
        else:
            conn.abort(ConnectionResetError("pool full"))

    async def _dial(
        self, dst: str, address: Tuple[str, int]
    ) -> _Connection:
        host, port = address
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), HANDSHAKE_TIMEOUT
        )
        conn = _Connection(dst, reader, writer)
        await conn.write(
            encode_frame(Hello(self._protocol_version, self.site_id))
        )
        frame = await asyncio.wait_for(
            self._read_frame(reader), HANDSHAKE_TIMEOUT
        )
        if isinstance(frame, Goodbye):
            conn.abort(ConnectionResetError("refused"))
            raise HandshakeError(
                f"site {dst!r} refused the connection: {frame.reason}"
            )
        if (
            not isinstance(frame, Welcome)
            or frame.version != self._protocol_version
        ):
            conn.abort(ConnectionResetError("bad handshake"))
            raise HandshakeError(
                f"bad handshake from {dst!r}: expected WELCOME v"
                f"{self._protocol_version}, got {frame!r}"
            )
        conn.pump_task = self._loop.create_task(self._pump(conn))
        self.dials[dst] = self.dials.get(dst, 0) + 1
        return conn

    async def _pump(self, conn: _Connection) -> None:
        """Dispatch incoming frames on a client connection."""
        try:
            while True:
                frame = await self._read_frame(conn.reader)
                if frame is None or isinstance(frame, Goodbye):
                    break
                if isinstance(frame, Reply):
                    waiter = conn.pending.get(frame.exchange_id)
                    # A late reply to an exchange that already timed out
                    # and completed via retransmission is simply dropped.
                    if waiter is not None and not waiter.done():
                        waiter.set_result(frame)
                elif isinstance(frame, Pong):
                    waiter = conn.pings.pop(frame.token, None)
                    if waiter is not None and not waiter.done():
                        waiter.set_result(self._loop.time())
        except (ConnectionError, OSError, FramingError):
            pass
        finally:
            conn.abort(ConnectionResetError("connection lost"))

    def ping(self, dst: str, timeout: float = 2.0) -> float:
        """Round-trip a transport-level PING; returns the RTT seconds."""
        if self._loop is None:
            raise TransportError(
                f"transport for {self.site_id!r} is not started"
            )
        future = asyncio.run_coroutine_threadsafe(
            self._ping(dst, timeout), self._loop
        )
        return future.result()

    async def _ping(self, dst: str, timeout: float) -> float:
        address = await self._resolve(dst)
        conn = await self._acquire(dst, address)
        token = next(self._exchange_ids)
        waiter = self._loop.create_future()
        conn.pings[token] = waiter
        started = self._loop.time()
        try:
            await conn.write(encode_frame(Ping(token)))
            finished = await asyncio.wait_for(waiter, timeout)
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            conn.abort(ConnectionResetError("ping failed"))
            raise TransportError(
                f"no PONG from {dst!r} within {timeout}s ({exc})"
            ) from None
        finally:
            conn.pings.pop(token, None)
        await self._release(dst, conn)
        return finished - started

    # -- server side ----------------------------------------------------------

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(None, reader, writer)
        self._server_conns.add(conn)
        try:
            frame = await asyncio.wait_for(
                self._read_frame(reader), HANDSHAKE_TIMEOUT
            )
            if not isinstance(frame, Hello):
                await conn.write(
                    encode_frame(
                        Goodbye(self.site_id, "expected HELLO")
                    )
                )
                return
            if frame.version not in self._accept_versions:
                supported = ", ".join(
                    str(v) for v in sorted(self._accept_versions)
                )
                await conn.write(
                    encode_frame(
                        Goodbye(
                            self.site_id,
                            f"unsupported protocol version "
                            f"{frame.version} (supported: {supported})",
                        )
                    )
                )
                return
            conn.peer = frame.site_id
            await conn.write(
                encode_frame(Welcome(frame.version, self.site_id))
            )
            while True:
                frame = await self._read_frame(reader)
                if frame is None or isinstance(frame, Goodbye):
                    break
                if isinstance(frame, Ping):
                    await conn.write(encode_frame(Pong(frame.token)))
                elif isinstance(frame, Request):
                    task = self._loop.create_task(
                        self._serve_request(frame, conn)
                    )
                    self._server_tasks.add(task)
                    task.add_done_callback(self._server_tasks.discard)
        except (
            ConnectionError,
            OSError,
            FramingError,
            asyncio.TimeoutError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            self._server_conns.discard(conn)
            conn.abort(ConnectionResetError("connection closed"))

    async def _serve_request(
        self, request: Request, conn: _Connection
    ) -> None:
        """Run (or replay) one exchange and send its reply frame."""
        key = (request.src, request.exchange_id)
        cache = self.endpoint.reply_cache
        encoded = cache.get(key)
        if encoded is None:
            inflight = self._inflight.get(key)
            if inflight is not None:
                # A retransmission arrived while the first transmission's
                # handler is still running: wait for that one result.
                encoded = await asyncio.shield(inflight)
            else:
                future = self._loop.create_future()
                self._inflight[key] = future
                try:
                    encoded = await self._execute(request)
                    cache.put(key, encoded)
                    future.set_result(encoded)
                except asyncio.CancelledError:
                    future.cancel()
                    raise
                finally:
                    self._inflight.pop(key, None)
        if self._faults is not None and (
            self._faults.reply_action() == FaultInjector.DROP
        ):
            self.stats.record_event(
                self.clock.now,
                "loss",
                f"injected drop of reply {self.site_id}->{request.src}",
                data={"site": self.site_id},
            )
            return
        try:
            await conn.write(encoded)
        except (ConnectionError, OSError):
            pass  # the peer will retransmit and hit the reply cache

    async def _execute(self, request: Request) -> bytes:
        """Dispatch one request to its handler on the worker pool."""
        try:
            kind = MessageKind(request.kind)
            if self._faults is not None and (
                self._faults.crash_on_receive(kind)
            ):
                # Planned death: the frame arrived but this process
                # dies before its handler can run.
                os._exit(FaultInjector.CRASH_EXIT_CODE)
            # Observe the sender's piggybacked clock before the handler
            # runs, so every event the handler records happens-after
            # everything the sender did up to this exchange.
            self.endpoint.vclock.merge(dict(request.clock))
            message = Message(
                src=request.src,
                dst=request.dst,
                kind=kind,
                payload=request.payload,
            )
            body = await self._loop.run_in_executor(
                self._executor, self.endpoint.handle, message
            )
            if not request.expects_reply and body:
                raise TransportError(
                    f"one-way {kind} message produced a reply"
                )
            reply = Reply(
                request.exchange_id,
                STATUS_OK,
                body,
                clock=clock_to_wire(self.endpoint.vclock.tick()),
            )
        except Exception as exc:  # noqa: BLE001 - ship transport errors
            reply = Reply(
                request.exchange_id,
                STATUS_HANDLER_ERROR,
                f"{type(exc).__name__}: {exc}".encode("utf-8"),
                clock=clock_to_wire(self.endpoint.vclock.tick()),
            )
        return encode_frame(reply)

    # -- frame I/O ------------------------------------------------------------

    @staticmethod
    async def _read_frame(reader: asyncio.StreamReader):
        """Read one frame; ``None`` on clean EOF."""
        try:
            prefix = await reader.readexactly(4)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise FramingError(
                "connection closed mid-frame (truncated length prefix)"
            ) from None
        length = frame_length(prefix)
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise FramingError(
                "connection closed mid-frame (truncated body)"
            ) from None
        return decode_frame(body)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TcpTransport({self.site_id!r}, address={self.address!r})"
        )
