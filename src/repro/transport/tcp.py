"""A real inter-process transport: framed exchanges over blocking TCP.

:class:`TcpTransport` carries the same :class:`~repro.simnet.message`
traffic as the simulator, but across genuine OS processes over
localhost (or any) TCP.  One transport hosts exactly one address
space, and the runtimes above stay fully synchronous:
``endpoint.send`` blocks the calling thread as a simulated delivery
does, because that thread itself writes the request and reads the
reply off a plain blocking socket.

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

Threads (DESIGN.md §9): a listening transport adds one daemon thread
in ``accept`` and one per accepted connection, which runs handlers
inline.  A callee blocked inside a handler sends its nested exchanges
back on *its own* client connection, which the caller's side serves on
that connection's thread — so a process can always answer requests
while one of its own calls is outstanding.  One transport lock guards
what those threads share.

Statistics and trace events are recorded into the transport's shared
:class:`~repro.simnet.stats.StatsCollector` with the same structured
shapes as the simulator's, so recorded real runs replay through
:mod:`repro.analysis.trace_rules` unchanged.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
import time
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.simnet.clock import CostModel
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
    LENGTH_PREFIX,
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
    decode_frame,
    encode_frame,
    frame_length,
)
from repro.transport.wallclock import WallClock

#: Idle connections kept per peer for reuse.
POOL_SIZE = 4

#: Bytes asked of the kernel per ``recv``.
RECV_BYTES = 64 * 1024

#: A bulk receive buffer up to this size stays with its connection:
#: fresh pages cost several times the copy (2.3 vs 0.33 ms per 4 MB).
BULK_KEEP = 8 * 1024 * 1024


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
    """One TCP connection: a socket and the bytes read past a frame.

    One thread at a time uses it: the exchange that took it from the
    pool, or the thread serving it.  A ``deadline`` is a
    ``time.monotonic()`` instant, enforced with ``socket.timeout`` (an
    ``OSError``); ``None`` leaves the socket in its own mode.
    """

    __slots__ = ("sock", "_buffer", "_bulk")

    def __init__(self, sock: socket.socket) -> None:
        # A duplicated request or a GOODBYE behind a reply is
        # write-write-read: Nagle plus delayed ACK stalls that 40 ms.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self._buffer = b""
        self._bulk = bytearray()

    def _arm(self, deadline: Optional[float]) -> None:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise socket.timeout("timed out")
            self.sock.settimeout(remaining)

    def send(self, data: bytes, deadline: Optional[float] = None) -> None:
        self._arm(deadline)
        self.sock.sendall(data)

    def read_frame(self, deadline: Optional[float] = None):
        """Read one frame; ``None`` on clean EOF."""
        start = LENGTH_PREFIX.size
        while len(self._buffer) < start:
            self._arm(deadline)
            chunk = self.sock.recv(RECV_BYTES)
            if not chunk:
                if self._buffer:
                    raise FramingError("connection closed mid-prefix")
                return None
            self._buffer += chunk
        buffer = self._buffer
        end = start + frame_length(buffer[:start])
        if len(buffer) >= end:
            self._buffer = buffer[end:]
            return decode_frame(memoryview(buffer)[start:end])
        # Receive the rest into a buffer sized from the prefix.
        length = end - start
        body = self._bulk
        if len(body) < length:
            body = bytearray(length)
            if length <= BULK_KEEP:
                self._bulk = body
        view = memoryview(body)[:length]
        have = len(buffer) - start
        view[:have] = memoryview(buffer)[start:]
        while have < length:
            self._arm(deadline)
            count = self.sock.recv_into(view[have:])
            if not count:
                raise FramingError("connection closed mid-frame")
            have += count
        self._buffer = b""
        return decode_frame(view)

    def idle_alive(self) -> bool:
        """Drain what arrived while pooled; False if the peer is gone.

        Nobody reads a pooled connection: a peer's EOF or GOODBYE and
        late duplicate replies wait in the kernel for the next taker.
        ``settimeout(0)``, as ``MSG_DONTWAIT`` on a socket with a
        Python timeout set still polls for that timeout first.
        """
        try:
            self.sock.settimeout(0)
            while True:
                frame = self.read_frame()
                if frame is None or isinstance(frame, Goodbye):
                    return False
                # Anything else is a stale REPLY or PONG: dropped.
        except BlockingIOError:
            # Drained.  Mid-frame (a bulk duplicate still arriving) a
            # fresh dial is cheaper than waiting the rest out.
            return not self._buffer
        except (OSError, FramingError):
            return False

    def shutdown(self) -> None:
        """Wake the thread blocked on the socket (``close`` alone does
        not, on Linux); it closes the descriptor, whose number is
        thus never reused under a call still in progress."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected, or the peer got there first

    def close(self) -> None:
        self.shutdown()
        self.sock.close()


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
        # half — Birrell-Nelson's per-boot conversation identifier —
        # or a restarted process reusing a site id would collide with
        # the replies its predecessor left in peers' reply caches.
        incarnation = int.from_bytes(os.urandom(4), "big")
        self._exchange_ids = itertools.count((incarnation << 32) | 1)
        # Guards the three tables below, dials/retransmissions, the
        # reply cache, the stats counters and the fault ordinals:
        # callers' threads and serving threads all touch them.
        self._lock = threading.Lock()
        self._pool: Dict[str, List[_Connection]] = {}
        # Every live connection (pooled, in an exchange, being served),
        # so that close() can wake whoever is blocked on one.
        self._conns: Set[_Connection] = set()
        self._inflight: Dict[Tuple[str, int], threading.Event] = {}
        self._handler_slots = threading.BoundedSemaphore(max_workers)
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._started = False
        self._closed = threading.Event()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> Optional[Tuple[str, int]]:
        """Start listening; return the bound ``(host, port)``, or
        ``None`` for a client-only transport."""
        if self._started:
            raise TransportError(
                f"transport for {self.site_id!r} already started"
            )
        self._started = True
        if self._listen:
            v6 = ":" in self._host
            self._listener = socket.create_server(
                (self._host, self._port),
                family=socket.AF_INET6 if v6 else socket.AF_INET,
            )
            self.address = self._listener.getsockname()[:2]
            self._acceptor = threading.Thread(
                target=self._accept_loop,
                name=f"tcp-{self.site_id}",
                daemon=True,
            )
            self._acceptor.start()
        return self.address

    def close(self) -> None:
        """Close listener and connections; the threads exit once woken."""
        if not self._started or self._closed.is_set():
            return
        self._closed.set()
        if self._listener is not None:
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover - platform dependent
                pass
            self._acceptor.join(HANDSHAKE_TIMEOUT)
            self._listener.close()
        with self._lock:
            idle = [conn for pool in self._pool.values() for conn in pool]
            self._pool.clear()
            self._conns.difference_update(idle)
            owned = list(self._conns)
        goodbye = encode_frame(Goodbye(self.site_id, "shutting down"))
        for conn in idle:
            try:
                conn.send(goodbye, time.monotonic() + 0.2)
            except OSError:
                pass
            conn.close()
        for conn in owned:
            conn.shutdown()  # its thread drops and closes it

    # -- peer addressing ------------------------------------------------------

    def add_peer(self, site_id: str, address: Tuple[str, int]) -> None:
        """Teach this transport where ``site_id`` listens."""
        self._peers[site_id] = tuple(address)

    def _resolve(self, dst: str) -> Tuple[str, int]:
        address = self._peers.get(dst)
        if address is not None:
            return address
        if self._directory_site is not None and dst != self._directory_site:
            from repro.namesvc.directory import (
                decode_lookup_reply,
                encode_lookup,
            )

            payload = self.exchange(
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

    def _check_running(self) -> None:
        if not self._started or self._closed.is_set():
            state = "closed" if self._started else "not started"
            raise TransportError(
                f"transport for {self.site_id!r} is {state}"
            )

    def exchange(
        self,
        dst: str,
        kind: MessageKind,
        payload: bytes,
        reply_kind: Optional[MessageKind] = None,
        timeout: Optional[float] = None,
    ) -> bytes:
        """Blocking request/response exchange with at-most-once retries,
        run entirely on the calling thread.

        ``timeout`` caps the *whole* exchange — connects, retransmits
        and all — with a :class:`TransportError` instead of the full
        retry schedule (the session layer's per-exchange guard).
        """
        self._check_running()
        cap = timeout
        deadline = time.monotonic() + cap if cap is not None else None
        address = self._resolve(dst)
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
                clock=self.endpoint.vclock.tick_wire(),
            )
        )
        message = Message(
            src=self.site_id, dst=dst, kind=kind, payload=payload
        )
        attempts = 0
        last_error: Optional[BaseException] = None
        for timeout in self._retry.timeouts():
            self._check_running()
            attempts += 1
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportError(
                        f"{kind.value} exchange {self.site_id!r}->"
                        f"{dst!r} exceeded its {cap}s cap after "
                        f"{attempts - 1} attempt(s) ({last_error})"
                    )
                timeout = min(timeout, remaining)
            try:
                conn = self._acquire(dst, address)
            except OSError as exc:  # a HandshakeError passes through
                last_error = exc
                self.note_timeout(
                    f"connect to {dst!r} failed ({exc}); retrying",
                    site=self.site_id,
                )
                self._closed.wait(timeout)
                continue
            until = time.monotonic() + timeout
            try:
                with self._lock:
                    action = (
                        self._faults.request_action()
                        if self._faults else None
                    )
                if action == FaultInjector.DROP:
                    # Charged as sent, lost in transit — the
                    # simulator's lossy path does exactly this.
                    self._note(message)
                    self._note_loss(f"{kind.value} {self.site_id}->{dst}")
                else:
                    conn.send(encoded, until)
                    self._note(message)
                    if self._faults is not None:
                        with self._lock:
                            if self._faults.crash_after_send(kind):
                                # Planned death: the peer will process
                                # the frame, its reply finds nobody.
                                os._exit(FaultInjector.CRASH_EXIT_CODE)
                    if action == FaultInjector.DUPLICATE:
                        conn.send(encoded, until)
                        self._note(message)
                reply = self._await(conn, exchange_id, until)
            except (OSError, FramingError) as exc:
                last_error = exc
                self._discard(conn)
                with self._lock:
                    self.retransmissions += 1
                    self.note_timeout(
                        f"{kind.value} exchange {self.site_id}->{dst} "
                        "timed out; retransmitting",
                        site=self.site_id,
                    )
                continue
            except BaseException:
                self._discard(conn)
                raise
            self._release(dst, conn)
            return self._finish(dst, kind, reply_kind, reply)
        raise TransportError(
            f"{kind.value} exchange {self.site_id!r}->{dst!r} failed "
            f"after {attempts} attempts ({last_error})"
        )

    @staticmethod
    def _await(
        conn: _Connection, ident: int, deadline: float
    ) -> Union[Reply, Pong]:
        """Read up to the REPLY or PONG answering ``ident`` (ids and
        tokens share one counter); any other REPLY is the late
        duplicate of an exchange already completed, and is dropped."""
        while True:
            frame = conn.read_frame(deadline)
            if frame is None or isinstance(frame, Goodbye):
                raise ConnectionResetError("connection lost")
            if isinstance(frame, Reply) and frame.exchange_id == ident:
                return frame
            if isinstance(frame, Pong) and frame.token == ident:
                return frame

    def _note(self, message: Message) -> None:
        """Count one transmitted message; stamp it when tracing."""
        with self._lock:
            stamp = self.endpoint.stamp() if self.stats.tracing else None
            self.note_message(message, stamp=stamp)

    def _note_loss(self, what: str) -> None:
        self.stats.record_event(
            self.clock.now,
            "loss",
            f"injected drop of {what}",
            data={"site": self.site_id},
        )

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
        self.endpoint.vclock.merge_wire(reply.clock)
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
        message = Message(
            src=dst, dst=self.site_id, kind=reply_kind, payload=reply.payload
        )
        self._note(message)
        return reply.payload

    def _acquire(self, dst: str, address: Tuple[str, int]) -> _Connection:
        """A connection to ``dst`` for this thread's exclusive use."""
        while True:
            with self._lock:
                pool = self._pool.get(dst)
                if not pool:
                    break
                conn = pool.pop()
            if conn.idle_alive():
                return conn
            # The peer went away (restarted, say) while this sat idle:
            # nothing was lost, so dial afresh, not a retransmission.
            self._discard(conn)
        return self._dial(dst, address)

    def _release(self, dst: str, conn: _Connection) -> None:
        with self._lock:
            pool = self._pool.setdefault(dst, [])
            if len(pool) < POOL_SIZE and not self._closed.is_set():
                pool.append(conn)
                return
        self._discard(conn)

    def _discard(self, conn: _Connection) -> None:
        with self._lock:
            self._conns.discard(conn)
        conn.close()

    def _dial(self, dst: str, address: Tuple[str, int]) -> _Connection:
        deadline = time.monotonic() + HANDSHAKE_TIMEOUT
        conn = _Connection(
            socket.create_connection(address, HANDSHAKE_TIMEOUT)
        )
        try:
            conn.send(
                encode_frame(Hello(self._protocol_version, self.site_id)),
                deadline,
            )
            frame = conn.read_frame(deadline)
            if isinstance(frame, Goodbye):
                raise HandshakeError(
                    f"site {dst!r} refused the connection: {frame.reason}"
                )
            if (
                not isinstance(frame, Welcome)
                or frame.version != self._protocol_version
            ):
                raise HandshakeError(
                    f"bad handshake from {dst!r}: expected WELCOME v"
                    f"{self._protocol_version}, got {frame!r}"
                )
            with self._lock:
                self._check_running()  # close() may have come first
                self._conns.add(conn)
                self.dials[dst] = self.dials.get(dst, 0) + 1
        except BaseException:
            conn.close()
            raise
        return conn

    def ping(self, dst: str, timeout: float = 2.0) -> float:
        """Round-trip a transport-level PING; returns the RTT seconds."""
        self._check_running()
        conn = self._acquire(dst, self._resolve(dst))
        token = next(self._exchange_ids)
        started = time.monotonic()
        try:
            conn.send(encode_frame(Ping(token)), started + timeout)
            self._await(conn, token, started + timeout)
        except (OSError, FramingError) as exc:
            self._discard(conn)
            raise TransportError(
                f"no PONG from {dst!r} within {timeout}s ({exc})"
            ) from None
        except BaseException:
            self._discard(conn)
            raise
        finished = time.monotonic()
        self._release(dst, conn)
        return finished - started

    # -- server side ----------------------------------------------------------

    def _accept_loop(self) -> None:
        """Hand every accepted connection its own serving thread."""
        while not self._closed.is_set():
            try:
                sock, _peer = self._listener.accept()
            except OSError:
                # close() shut the listener down (the loop ends), or
                # one accept failed; out of descriptors would spin.
                self._closed.wait(0.05)
                continue
            conn = _Connection(sock)
            with self._lock:
                if self._closed.is_set():
                    conn.close()
                    return
                self._conns.add(conn)
            threading.Thread(
                target=self._serve,
                args=(conn,),
                name=f"rpc-{self.site_id}",
                daemon=True,
            ).start()

    def _serve(self, conn: _Connection) -> None:
        """Handshake, then answer one connection until it ends."""
        try:
            frame = conn.read_frame(time.monotonic() + HANDSHAKE_TIMEOUT)
            refusal = None
            if not isinstance(frame, Hello):
                refusal = "expected HELLO"
            elif frame.version not in self._accept_versions:
                supported = sorted(self._accept_versions)
                refusal = (
                    f"unsupported protocol version {frame.version} "
                    f"(supported: {', '.join(map(str, supported))})"
                )
            if refusal is not None:
                conn.send(encode_frame(Goodbye(self.site_id, refusal)))
                return
            conn.send(encode_frame(Welcome(frame.version, self.site_id)))
            conn.sock.settimeout(None)  # from here on, block
            while True:
                frame = conn.read_frame()
                if frame is None or isinstance(frame, Goodbye):
                    break
                if isinstance(frame, Ping):
                    conn.send(encode_frame(Pong(frame.token)))
                elif isinstance(frame, Request):
                    self._serve_request(frame, conn)
        except (OSError, FramingError):
            pass  # a broken or hostile peer costs its own connection
        finally:
            self._discard(conn)

    def _serve_request(self, request: Request, conn: _Connection) -> None:
        """Run (or replay) one exchange and send its reply frame."""
        key = (request.src, request.exchange_id)
        cache = self.endpoint.reply_cache
        with self._lock:
            encoded = cache.get(key)
            if encoded is None:
                running = self._inflight.get(key)
                if running is None:
                    self._inflight[key] = threading.Event()
        if encoded is None and running is None:
            try:
                encoded = self._execute(request)
            finally:
                with self._lock:
                    if encoded is not None:
                        cache.put(key, encoded)
                    self._inflight.pop(key).set()
        elif encoded is None:
            # A retransmission on another connection while the first
            # transmission's handler still runs: wait for that one run.
            running.wait()
            with self._lock:
                encoded = cache.get(key)
            if encoded is None:
                return  # that run died; the peer will retransmit
        if self._faults is not None:
            with self._lock:
                action = self._faults.reply_action()
            if action == FaultInjector.DROP:
                self._note_loss(f"reply {self.site_id}->{request.src}")
                return
        try:
            conn.send(encoded)
        except OSError:
            pass  # the peer will retransmit and hit the reply cache

    def _execute(self, request: Request) -> bytes:
        """Dispatch one request to its handler, on this thread."""
        try:
            kind = MessageKind(request.kind)
            if self._faults is not None:
                with self._lock:
                    if self._faults.crash_on_receive(kind):
                        # Planned death before the handler can run.
                        os._exit(FaultInjector.CRASH_EXIT_CODE)
            # Observe the sender's piggybacked clock before the handler
            # runs, so every event the handler records happens-after
            # everything the sender did up to this exchange.
            self.endpoint.vclock.merge_wire(request.clock)
            message = Message(
                src=request.src,
                dst=request.dst,
                kind=kind,
                payload=request.payload,
            )
            with self._handler_slots:
                body = self.endpoint.handle(message)
            if not request.expects_reply and body:
                raise TransportError(
                    f"one-way {kind} message produced a reply"
                )
            reply = Reply(
                request.exchange_id,
                STATUS_OK,
                body,
                clock=self.endpoint.vclock.tick_wire(),
            )
        except Exception as exc:  # noqa: BLE001 - ship transport errors
            reply = Reply(
                request.exchange_id,
                STATUS_HANDLER_ERROR,
                f"{type(exc).__name__}: {exc}".encode("utf-8"),
                clock=self.endpoint.vclock.tick_wire(),
            )
        return encode_frame(reply)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TcpTransport({self.site_id!r}, address={self.address!r})"
