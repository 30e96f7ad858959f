"""The reliable exchange both real carriers run, and its link, written
once.

In the paper every first touch of remote data is a callback, so a
session is as reliable as one request/reply exchange is.  This module
is that exchange — Birrell-Nelson's, as the simulator models it and the
acceptance tests inject faults to prove it.  Every exchange carries a
per-sender id whose high half is a random per-boot incarnation, so a
restarted process reusing a site id cannot collide with the replies its
predecessor left in peers' caches.  The sender retransmits the
once-encoded request on timeout, backing off exponentially
(:class:`~repro.transport.base.RetryPolicy`).  The receiver keys a
:class:`~repro.transport.base.ReplyCache` and an in-flight gate on
``(sender, exchange id)``: a handler runs at most once per logical send
however many retransmissions or duplicated frames arrive, and each of
them gets the one reply.  Both frames piggyback their sender's vector
clock, and a :class:`~repro.transport.base.FaultInjector` drops,
duplicates and crash-kills at the same ordinals on either carrier.

The link is any ``SOCK_STREAM`` socket.  ``endpoint.send`` blocks the
calling thread as a simulated delivery does, because that thread
itself writes the request and reads the reply off a plain blocking
socket.  Connections are pooled and reused, and a versioned handshake
(:mod:`repro.transport.framing`) rejects incompatible peers at connect
time; :meth:`ExchangeTransport._answer_hello` and
:meth:`ExchangeTransport._judge_welcome` are its two judges.  A carrier
says how to listen and how to connect (``_bind``, ``_connect``,
``_address_of``, ``add_peer``), what a socket becomes (``_adopt``),
what a frame nobody waits for means (``_stray``) and what a connection
its peer ended means (``_hung_up``):
:class:`~repro.transport.tcp.TcpTransport` on ``AF_INET``,
:class:`~repro.transport.shm.ShmTransport` on ``AF_UNIX`` beside the
data segment its bulk bodies travel through.  Five payload hooks let
the latter ship a body by reference: ``_request_frame`` /
``_reply_frame`` choose the frame (inline, by default), ``_abandon``
takes back the body of a request nobody will answer, ``_deliver`` /
``_reply_payload`` open what is not a plain ``Request`` / ``Reply``.

Threads (DESIGN.md §9): a listening transport adds one daemon thread
in ``accept`` and one per accepted connection, which runs handlers
inline.  A callee blocked inside a handler sends its nested exchanges
back on *its own* client connection, which the caller's side serves on
that connection's thread — so a process can always answer requests
while one of its own calls is outstanding.  Liveness is the stream's:
a peer that died or closed is EOF or a reset, seen at once by whoever
is blocked on the connection; a peer that is stuck is the attempt's
timeout.

Where the two carriers had once drifted apart, one behaviour was
chosen (``tests/transport/exchange_contract.py`` pins each):

* **The in-flight gate** is waited on once, without a timeout (the
  running handler's ``finally`` always opens it); a retransmission that
  then finds nothing cached gives up, and the peer retransmits again.
* **One lock** guards the reply cache and gate, the fault ordinals,
  ``retransmissions``, ``dials``, the statistics counters, the pool
  and the set of live connections: callers' threads and serving
  threads touch all of them.
* **Handlers** are bounded by :data:`MAX_HANDLERS`, a constant no
  caller ever chose otherwise: a semaphore the serving threads pass.
* **The running check** is made before every attempt, so a closed
  transport fails at once on either carrier instead of dialling.

A client sends on a connection only once it has read the reply to its
previous request there, so the next ``REQUEST`` on a connection
acknowledges that reply (Birrell-Nelson's implicit acknowledgement) and
it leaves the reply cache then.  Nothing else retires an entry early —
not EOF, not a failed attempt, not ``GOODBYE`` — the cache's LRU bound
takes care of the rest.

:class:`repro.simnet.network.Network` is deliberately not a link: it
delivers synchronously and moves simulated time and no frames, so it
shares only the fault model with this loop — a simnet site takes the
same :class:`~repro.transport.base.FaultInjector`, counted at the same
ordinals.
"""

from __future__ import annotations

import abc
import itertools
import os
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.simnet.clock import CostModel
from repro.simnet.message import Message, MessageKind
from repro.simnet.stats import StatsCollector
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
    Frame,
    FramingError,
    Goodbye,
    Hello,
    Ping,
    Pong,
    Reply,
    Request,
    SegReply,
    SegRequest,
    Welcome,
    decode_frame,
    encode_frame,
    frame_length,
)
from repro.transport.wallclock import WallClock

#: Requests one transport serves at once.
MAX_HANDLERS = 32

#: Idle connections kept per peer for reuse.
POOL_SIZE = 4

#: Bytes asked of the kernel per ``recv``.
RECV_BYTES = 64 * 1024

#: A bulk receive buffer up to this size stays with its connection:
#: fresh pages cost several times the copy (2.3 vs 0.33 ms per 4 MB).
BULK_KEEP = 8 * 1024 * 1024

# A body shipped by reference is the same exchange as one shipped inline.
_REQUESTS = (Request, SegRequest)
_REPLIES = (Reply, SegReply)


class Connection:
    """One stream connection: a socket and the bytes read past a frame.

    One thread at a time uses it: the exchange that took it from the
    pool, or the thread serving it.  A ``deadline`` is a
    ``time.monotonic()`` instant, enforced with ``socket.timeout`` (an
    ``OSError``); ``None`` leaves the socket in its own mode.
    """

    __slots__ = ("sock", "peer", "served", "_buffer", "_bulk")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.peer: Optional[str] = None  # known once hands were shaken
        # ``(src, exchange id)`` of the last request served here.
        self.served: Optional[Tuple[str, int]] = None
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

    def idle_alive(self, stray: Callable[[Frame], None]) -> bool:
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
                stray(frame)  # a stale REPLY or PONG, say
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


class ExchangeEndpoint(Endpoint):
    """The one address space an :class:`ExchangeTransport` hosts."""

    def __init__(self, site_id: str, transport: "ExchangeTransport") -> None:
        super().__init__(site_id)
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


class ExchangeTransport(Transport):
    """Retried, at-most-once request/reply exchanges over stream
    sockets.

    One instance per OS process (or per simulated "process" when tests
    run several transports inside one interpreter).  ``peers`` maps
    site ids to link addresses; unknown destinations are resolved
    through the site directory at ``directory_site`` when configured
    (see :mod:`repro.namesvc.directory`).  Carriers add their own
    options and pass these through by keyword.
    """

    #: The carrier's :class:`ExchangeEndpoint` subclass.
    endpoint_class = ExchangeEndpoint

    def __init__(
        self,
        site_id: str,
        *,
        clock=None,
        cost_model: Optional[CostModel] = None,
        stats: Optional[StatsCollector] = None,
        peers: Optional[dict] = None,
        directory_site: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultInjector] = None,
        listen: bool = True,
        protocol_version: int = PROTOCOL_VERSION,
    ) -> None:
        super().__init__(
            clock=clock if clock is not None else WallClock(),
            cost_model=cost_model,
            stats=stats,
        )
        self.site_id = site_id
        self._listen = listen
        # Shared by reference: make_world mutates one peer table in
        # place as each stack's listener comes up.
        self._peers = peers if peers is not None else {}
        self._directory_site = directory_site
        self._retry = retry if retry is not None else RetryPolicy()
        self._faults = faults
        self._protocol_version = protocol_version
        self.endpoint = self.endpoint_class(site_id, self)
        self.address = None
        self.retransmissions = 0
        self.dials: Dict[str, int] = {}
        incarnation = int.from_bytes(os.urandom(4), "big")
        self._exchange_ids = itertools.count((incarnation << 32) | 1)
        self._lock = threading.Lock()
        self._inflight: Dict[Tuple[str, int], threading.Event] = {}
        self._pool: Dict[str, List[Connection]] = {}
        # Every live connection (pooled, in an exchange, being served),
        # so that close() can wake whoever is blocked on one.
        self._conns: Set[Connection] = set()
        self._handler_slots = threading.BoundedSemaphore(MAX_HANDLERS)
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._started = False
        self._closed = threading.Event()

    # -- what a carrier supplies ----------------------------------------------

    @abc.abstractmethod
    def _address_of(self, host: str, port: int):
        """The link address a directory record stands for."""

    @abc.abstractmethod
    def _bind(self) -> Tuple[socket.socket, object]:
        """A listening socket, and the address peers dial it at."""

    @abc.abstractmethod
    def _connect(self, address) -> socket.socket:
        """A socket connected to ``address`` within
        ``HANDSHAKE_TIMEOUT``; ``OSError`` if nobody listens there."""

    def _adopt(self, sock: socket.socket) -> Connection:
        """The connection a dialled or accepted ``sock`` becomes."""
        return Connection(sock)

    def _stray(self, frame: Frame) -> None:
        """A frame its reader was not waiting for: the late duplicate
        of a reply already taken, dropped."""

    def _hung_up(self, conn: Connection) -> None:
        """The peer ended ``conn``: EOF, a reset, GOODBYE or garbage —
        not this side's own pool eviction or failed attempt."""

    # -- payload hooks --------------------------------------------------------

    def _request_frame(
        self, exchange_id: int, dst: str, kind: MessageKind,
        expects_reply: bool, payload,
    ):
        """The frame that carries ``payload``, and the payload as the
        statistics count it.  Piggybacks this site's vector clock; the
        responder merges it before running the handler."""
        request = Request(
            exchange_id=exchange_id,
            src=self.site_id,
            dst=dst,
            kind=kind.value,
            expects_reply=expects_reply,
            payload=payload,
            clock=self.endpoint.vclock.tick_wire(),
        )
        return request, payload

    def _abandon(self, frame: Frame) -> None:
        """The exchange ``frame`` opened has failed for good."""

    def _reply_payload(self, conn: Connection, dst: str, reply):
        """The body of a reply, not a plain ``Reply``, that ``conn``
        brought."""
        raise NotImplementedError

    def _deliver(self, conn: Connection, request, kind: MessageKind) -> bytes:
        """Run the handler for a request that is not a plain ``Request``."""
        raise NotImplementedError

    def _reply_frame(self, request, body) -> Frame:
        """The frame that carries a successful handler's ``body``."""
        clock = self.endpoint.vclock.tick_wire()
        return Reply(request.exchange_id, STATUS_OK, body, clock=clock)

    # -- lifecycle ------------------------------------------------------------

    def start(self):
        """Start listening; return the bound address, or ``None`` for
        a client-only transport."""
        if self._started:
            raise TransportError(
                f"transport for {self.site_id!r} already started"
            )
        self._started = True
        if self._listen:
            self._listener, self.address = self._bind()
            self._acceptor = threading.Thread(
                target=self._accept_loop,
                name=f"accept-{self.site_id}",
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

    def _check_running(self) -> None:
        if not self._started or self._closed.is_set():
            state = "closed" if self._started else "not started"
            raise TransportError(
                f"transport for {self.site_id!r} is {state}"
            )

    # -- addressing and handshake ---------------------------------------------

    def _resolve(self, dst: str):
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
            host, port, _age = decode_lookup_reply(bytes(payload), dst)
            address = self._peers[dst] = self._address_of(host, port)
            return address
        raise TransportError(
            f"site {self.site_id!r} has no route to {dst!r}"
        )

    def _answer_hello(self, frame) -> Union[Welcome, Goodbye]:
        """What to send back to a connection's opening frame."""
        if not isinstance(frame, Hello):
            return Goodbye(self.site_id, "expected HELLO")
        if frame.version != self._protocol_version:
            return Goodbye(
                self.site_id,
                f"unsupported protocol version {frame.version} "
                f"(supported: {self._protocol_version})",
            )
        return Welcome(frame.version, self.site_id)

    def _judge_welcome(self, dst: str, frame) -> None:
        """Raise :class:`HandshakeError` unless ``dst`` welcomed us."""
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

    # -- client side ----------------------------------------------------------

    def exchange(
        self,
        dst: str,
        kind: MessageKind,
        payload,
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
        deadline = time.monotonic() + timeout if timeout is not None else None
        address = self._resolve(dst)
        exchange_id = next(self._exchange_ids)
        frame, logical = self._request_frame(
            exchange_id, dst, kind, reply_kind is not None, payload
        )
        message = Message(self.site_id, dst, kind, logical)
        try:
            # Encoded once: every retransmission carries the same clock.
            conn, reply = self._run_attempts(
                dst, address, exchange_id, encode_frame(frame), message,
                timeout, deadline,
            )
        except BaseException:
            self._abandon(frame)
            raise
        return self._finish(conn, dst, kind, reply_kind, reply)

    def _run_attempts(
        self, dst: str, address, exchange_id: int, encoded: bytes,
        message: Message, cap: Optional[float], deadline: Optional[float],
    ) -> tuple:
        """The retry loop: connect, transmit, wait, back off.  Returns
        the reply and, first, the connection that brought it."""
        kind = message.kind
        faults = self._faults
        attempts = 0
        last_error: Optional[BaseException] = None
        for timeout in self._retry.timeouts():
            if attempts:  # exchange() has just checked, before the first
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
            copies = 1
            if faults is not None:
                with self._lock:
                    action = faults.request_action()
                if action == FaultInjector.DROP:
                    # Charged as sent, lost in transit — the
                    # simulator does exactly this.
                    copies = 0
                    self._note(message)
                    self._note_loss(f"{kind.value} {self.site_id}->{dst}")
                elif action == FaultInjector.DUPLICATE:
                    copies = 2
            until = time.monotonic() + timeout
            try:
                for copy in range(copies):
                    conn.send(encoded, until)
                    self._note(message)
                    if faults is not None and not copy:
                        with self._lock:
                            if faults.crash_after_send(kind):
                                # Planned death: the peer will process
                                # the frame, its reply finds nobody.
                                os._exit(FaultInjector.CRASH_EXIT_CODE)
                reply = self._await(conn, exchange_id, until)
            except OSError as exc:
                last_error = exc
                self._discard(conn, hung_up=isinstance(exc, ConnectionError))
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
            return conn, reply
        raise TransportError(
            f"{kind.value} exchange {self.site_id!r}->{dst!r} failed "
            f"after {attempts} attempts ({last_error})"
        )

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
        conn: Connection,
        dst: str,
        kind: MessageKind,
        reply_kind: Optional[MessageKind],
        reply,
    ) -> bytes:
        # The reply piggybacks the responder's clock: merging it makes
        # everything the handler did happen-before this site's next
        # traced event.
        self.endpoint.vclock.merge_wire(reply.clock)
        if reply.__class__ is Reply:
            payload = reply.payload
        else:
            payload = self._reply_payload(conn, dst, reply)
        if reply.status == STATUS_HANDLER_ERROR:
            raise RemoteHandlerError(
                f"{kind.value} handler at {dst!r} failed: "
                f"{bytes(payload).decode('utf-8', 'replace')}"
            )
        if reply.status != STATUS_OK:
            raise TransportError(
                f"bad reply status {reply.status!r} from {dst!r}"
            )
        if reply_kind is None:
            if payload:
                raise TransportError(
                    f"one-way {kind} message to {dst!r} produced a reply"
                )
            return b""
        self._note(Message(dst, self.site_id, reply_kind, payload))
        return payload

    def ping(self, dst: str, timeout: float = 2.0) -> float:
        """Round-trip a transport-level PING; returns the RTT seconds."""
        self._check_running()
        address = self._resolve(dst)
        token = next(self._exchange_ids)  # ids and tokens: one counter
        ping = encode_frame(Ping(token))
        try:
            conn = self._acquire(dst, address)
            started = time.monotonic()
            try:
                conn.send(ping, started + timeout)
                self._await(conn, token, started + timeout)
            except BaseException as exc:
                self._discard(conn, hung_up=isinstance(exc, ConnectionError))
                raise
        except OSError as exc:
            raise TransportError(
                f"no PONG from {dst!r} within {timeout}s ({exc})"
            ) from None
        finished = time.monotonic()
        self._release(dst, conn)
        return finished - started

    def _await(
        self, conn: Connection, ident: int, deadline: float
    ) -> Union[Reply, SegReply, Pong]:
        """Read up to the REPLY or PONG answering ``ident`` (ids and
        tokens share one counter); any other REPLY is the late
        duplicate of an exchange already completed."""
        while True:
            try:
                frame = conn.read_frame(deadline)
            except FramingError as exc:
                # A peer that sends garbage costs this connection, like
                # one that sends nothing: the next attempt dials afresh.
                raise ConnectionResetError(
                    f"malformed frame ({exc})"
                ) from None
            if frame is None or isinstance(frame, Goodbye):
                raise ConnectionResetError("connection lost")
            if isinstance(frame, _REPLIES) and frame.exchange_id == ident:
                return frame
            if isinstance(frame, Pong) and frame.token == ident:
                return frame
            self._stray(frame)

    def _acquire(self, dst: str, address) -> Connection:
        """A connection to ``dst`` for this thread's exclusive use;
        ``OSError`` if none can be made."""
        while True:
            with self._lock:
                pool = self._pool.get(dst)
                if not pool:
                    break
                conn = pool.pop()
            if conn.idle_alive(self._stray):
                return conn
            # The peer went away (restarted, say) while this sat idle:
            # nothing was lost, so dial afresh, not a retransmission.
            self._discard(conn, hung_up=True)
        return self._dial(dst, address)

    def _release(self, dst: str, conn: Connection) -> None:
        """Give ``conn`` back after a completed exchange."""
        with self._lock:
            pool = self._pool.setdefault(dst, [])
            if len(pool) < POOL_SIZE and not self._closed.is_set():
                pool.append(conn)
                return
        self._discard(conn)

    def _discard(self, conn: Connection, hung_up: bool = False) -> None:
        """Close ``conn``, which may hold half a frame; ``hung_up`` if
        its peer ended it."""
        with self._lock:
            self._conns.discard(conn)
        conn.close()
        if hung_up:
            self._hung_up(conn)

    def _dial(self, dst: str, address) -> Connection:
        deadline = time.monotonic() + HANDSHAKE_TIMEOUT
        conn = self._adopt(self._connect(address))
        try:
            conn.send(
                encode_frame(Hello(self._protocol_version, self.site_id)),
                deadline,
            )
            self._judge_welcome(dst, conn.read_frame(deadline))
            conn.peer = dst
            with self._lock:
                self._check_running()  # close() may have come first
                self._conns.add(conn)
                self.dials[dst] = self.dials.get(dst, 0) + 1
        except BaseException:
            conn.close()
            raise
        return conn

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
            conn = self._adopt(sock)
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

    def _serve(self, conn: Connection) -> None:
        """Handshake, then answer one connection until it ends."""
        try:
            hello = conn.read_frame(time.monotonic() + HANDSHAKE_TIMEOUT)
            answer = self._answer_hello(hello)
            conn.send(encode_frame(answer))
            if isinstance(answer, Goodbye):
                return
            conn.peer = hello.site_id
            conn.sock.settimeout(None)  # from here on, block
            while True:
                frame = conn.read_frame()
                if frame is None or isinstance(frame, Goodbye):
                    break
                if isinstance(frame, _REQUESTS):
                    with self._handler_slots:
                        self._serve_request(conn, frame)
                elif isinstance(frame, Ping):
                    conn.send(encode_frame(Pong(frame.token)))
                else:
                    self._stray(frame)
        except (OSError, FramingError):
            pass  # a broken or hostile peer costs its own connection
        finally:
            self._discard(conn, hung_up=True)

    def _serve_request(self, conn: Connection, request) -> None:
        """Run (or replay) one exchange and push its reply."""
        key = (request.src, request.exchange_id)
        cache = self.endpoint.reply_cache
        with self._lock:
            if conn.served != key:
                # The client has read the reply to the request served
                # before this one here: nobody will ask for it again.
                cache.discard(conn.served)
                conn.served = key
            encoded = cache.get(key)
            if encoded is None:
                running = self._inflight.get(key)
                if running is None:
                    self._inflight[key] = threading.Event()
        if encoded is None and running is None:
            try:
                encoded = self._execute(conn, request)
            finally:
                with self._lock:
                    if encoded is not None:
                        cache.put(key, encoded)
                    self._inflight.pop(key).set()
        elif encoded is None:
            # A retransmission while the first transmission's handler
            # still runs: wait for that one run.
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

    def _execute(self, conn: Connection, request) -> bytes:
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
            if request.__class__ is Request:
                body = self.endpoint.handle(
                    Message(request.src, request.dst, kind, request.payload)
                )
            else:
                body = self._deliver(conn, request, kind)
            if not request.expects_reply and body:
                raise TransportError(
                    f"one-way {kind} message produced a reply"
                )
            reply = self._reply_frame(request, body)
        except Exception as exc:  # noqa: BLE001 - ship transport errors
            reply = Reply(
                request.exchange_id,
                STATUS_HANDLER_ERROR,
                f"{type(exc).__name__}: {exc}".encode("utf-8"),
                clock=self.endpoint.vclock.tick_wire(),
            )
        return encode_frame(reply)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.site_id!r}, "
            f"address={self.address!r})"
        )
