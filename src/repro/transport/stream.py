"""The stream link both real carriers run: framed exchanges over
blocking stream sockets.

The exchange itself — ids, retransmission, at-most-once, faults,
clocks, dispatch — is :class:`~repro.transport.exchange.ExchangeTransport`;
:class:`StreamTransport` is its *link*, written once for any
``SOCK_STREAM`` socket.  ``endpoint.send`` blocks the calling thread as
a simulated delivery does, because that thread itself writes the
request and reads the reply off a plain blocking socket.  Connections
are pooled and reused, and a versioned handshake
(:mod:`repro.transport.framing`) rejects incompatible peers at connect
time.  A carrier says how to listen and how to connect, and nothing
else: :class:`~repro.transport.tcp.TcpTransport` on ``AF_INET``,
:class:`~repro.transport.shm.ShmTransport` on ``AF_UNIX`` beside the
data segment its bulk bodies travel through.

Threads (DESIGN.md §9): a listening transport adds one daemon thread
in ``accept`` and one per accepted connection, which runs handlers
inline.  A callee blocked inside a handler sends its nested exchanges
back on *its own* client connection, which the caller's side serves on
that connection's thread — so a process can always answer requests
while one of its own calls is outstanding.

Liveness is the stream's: a peer that died or closed is EOF or a reset,
seen at once by whoever is blocked on the connection; a peer that is
stuck is the attempt's timeout.
"""

from __future__ import annotations

import abc
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.transport.base import HANDSHAKE_TIMEOUT
from repro.transport.exchange import MAX_HANDLERS, ExchangeTransport
from repro.transport.framing import (
    LENGTH_PREFIX,
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
    decode_frame,
    encode_frame,
    frame_length,
)

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

    __slots__ = ("sock", "peer", "_buffer", "_bulk")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.peer: Optional[str] = None  # known once hands were shaken
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


class StreamTransport(ExchangeTransport):
    """Length-prefixed, retried, at-most-once exchanges over stream
    sockets.  Every keyword option is
    :class:`~repro.transport.exchange.ExchangeTransport`'s."""

    def __init__(self, site_id: str, **exchange_options) -> None:
        super().__init__(site_id, **exchange_options)
        # Both under the transport lock: callers' threads and serving
        # threads all touch them.
        self._pool: Dict[str, List[Connection]] = {}
        # Every live connection (pooled, in an exchange, being served),
        # so that close() can wake whoever is blocked on one.
        self._conns: Set[Connection] = set()
        self._handler_slots = threading.BoundedSemaphore(MAX_HANDLERS)
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None

    # -- what a carrier supplies ----------------------------------------------

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

    # -- lifecycle ------------------------------------------------------------

    def start(self):
        """Start listening; return the bound address, or ``None`` for
        a client-only transport."""
        self._mark_started()
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

    # -- the link -------------------------------------------------------------

    def _attempt(
        self, conn: Connection, ident: int, encoded: bytes, copies: int,
        timeout: float, sent: Callable[[int], None],
    ) -> Union[Reply, SegReply, Pong]:
        until = time.monotonic() + timeout
        try:
            for copy in range(copies):
                conn.send(encoded, until)
                sent(copy)
            return self._await(conn, ident, until)
        except FramingError as exc:
            # A peer that sends garbage costs this connection, like one
            # that sends nothing: the next attempt dials afresh.
            self._hung_up(conn)
            raise ConnectionResetError(f"malformed frame ({exc})") from None
        except ConnectionError:
            self._hung_up(conn)
            raise

    def _await(
        self, conn: Connection, ident: int, deadline: float
    ) -> Union[Reply, SegReply, Pong]:
        """Read up to the REPLY or PONG answering ``ident`` (ids and
        tokens share one counter); any other REPLY is the late
        duplicate of an exchange already completed."""
        while True:
            frame = conn.read_frame(deadline)
            if frame is None or isinstance(frame, Goodbye):
                raise ConnectionResetError("connection lost")
            if isinstance(frame, _REPLIES) and frame.exchange_id == ident:
                return frame
            if isinstance(frame, Pong) and frame.token == ident:
                return frame
            self._stray(frame)

    def _acquire(self, dst: str, address) -> Connection:
        """A connection to ``dst`` for this thread's exclusive use."""
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
            self._discard(conn)
            self._hung_up(conn)
        return self._dial(dst, address)

    def _release(self, dst: str, conn: Connection) -> None:
        with self._lock:
            pool = self._pool.setdefault(dst, [])
            if len(pool) < POOL_SIZE and not self._closed.is_set():
                pool.append(conn)
                return
        self._discard(conn)

    def _discard(self, conn: Connection) -> None:
        with self._lock:
            self._conns.discard(conn)
        conn.close()

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

    def _push_reply(self, conn: Connection, encoded: bytes) -> None:
        try:
            conn.send(encoded)
        except OSError:
            pass  # the peer will retransmit and hit the reply cache

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
            self._discard(conn)
            self._hung_up(conn)
