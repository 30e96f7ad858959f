"""A real inter-process transport: framed exchanges over blocking TCP.

:class:`TcpTransport` carries the same :class:`~repro.simnet.message`
traffic as the simulator, but across genuine OS processes over
localhost (or any) TCP.  One transport hosts exactly one address
space, and the runtimes above stay fully synchronous:
``endpoint.send`` blocks the calling thread as a simulated delivery
does, because that thread itself writes the request and reads the
reply off a plain blocking socket.

The exchange itself — ids, retransmission, at-most-once, faults,
clocks, dispatch — is :class:`~repro.transport.exchange.ExchangeTransport`;
this module is its TCP *link*: connections are pooled and reused, and
a versioned handshake (:mod:`repro.transport.framing`) rejects
incompatible peers at connect time.

Threads (DESIGN.md §9): a listening transport adds one daemon thread
in ``accept`` and one per accepted connection, which runs handlers
inline.  A callee blocked inside a handler sends its nested exchanges
back on *its own* client connection, which the caller's side serves on
that connection's thread — so a process can always answer requests
while one of its own calls is outstanding.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.transport.base import HANDSHAKE_TIMEOUT
# Lives in base.py; tests import it from here too.
from repro.transport.base import FaultInjector  # noqa: F401
from repro.transport.exchange import (
    MAX_HANDLERS,
    ExchangeEndpoint,
    ExchangeTransport,
)
from repro.transport.framing import (
    LENGTH_PREFIX,
    FramingError,
    Goodbye,
    Hello,
    Ping,
    Pong,
    Reply,
    Request,
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


class TcpEndpoint(ExchangeEndpoint):
    """The one address space a :class:`TcpTransport` hosts."""

    # Bound in this class's own dict, not just inherited: the
    # benchmark's tracer patches ``vars(cls)["send"]`` per carrier.
    send = ExchangeEndpoint.send


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


class TcpTransport(ExchangeTransport):
    """Length-prefixed, retried, at-most-once exchanges over TCP.

    ``peers`` maps site ids to ``(host, port)``; every keyword option
    is :class:`~repro.transport.exchange.ExchangeTransport`'s.
    """

    endpoint_class = TcpEndpoint

    # A refused connect returns at once: wait the attempt's timeout out,
    # so that the retry schedule spans a peer that is just restarting.
    CONNECT_BACKOFF = float("inf")

    def __init__(
        self, site_id: str, host: str = "127.0.0.1", port: int = 0,
        **exchange_options,
    ) -> None:
        super().__init__(site_id, **exchange_options)
        self._host = host
        self._port = port
        # Both under the transport lock: callers' threads and serving
        # threads all touch them.
        self._pool: Dict[str, List[_Connection]] = {}
        # Every live connection (pooled, in an exchange, being served),
        # so that close() can wake whoever is blocked on one.
        self._conns: Set[_Connection] = set()
        self._handler_slots = threading.BoundedSemaphore(MAX_HANDLERS)
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> Optional[Tuple[str, int]]:
        """Start listening; return the bound ``(host, port)``, or
        ``None`` for a client-only transport."""
        self._mark_started()
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

    # -- the link -------------------------------------------------------------

    def add_peer(self, site_id: str, address: Tuple[str, int]) -> None:
        """Teach this transport where ``site_id`` listens."""
        self._peers[site_id] = tuple(address)

    def _address_of(self, host: str, port: int) -> Tuple[str, int]:
        return host, port

    def _attempt(
        self, conn: _Connection, ident: int, encoded: bytes, copies: int,
        timeout: float, sent: Callable[[int], None],
    ) -> Union[Reply, Pong]:
        until = time.monotonic() + timeout
        try:
            for copy in range(copies):
                conn.send(encoded, until)
                sent(copy)
            return self._await(conn, ident, until)
        except FramingError as exc:
            # A peer that sends garbage costs this connection, like one
            # that sends nothing: the next attempt dials afresh.
            raise ConnectionResetError(f"malformed frame ({exc})") from None

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
            self._judge_welcome(dst, conn.read_frame(deadline))
            with self._lock:
                self._check_running()  # close() may have come first
                self._conns.add(conn)
                self.dials[dst] = self.dials.get(dst, 0) + 1
        except BaseException:
            conn.close()
            raise
        return conn

    def _push_reply(self, conn: _Connection, encoded: bytes) -> None:
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
            answer = self._answer_hello(
                conn.read_frame(time.monotonic() + HANDSHAKE_TIMEOUT)
            )
            conn.send(encode_frame(answer))
            if isinstance(answer, Goodbye):
                return
            conn.sock.settimeout(None)  # from here on, block
            while True:
                frame = conn.read_frame()
                if frame is None or isinstance(frame, Goodbye):
                    break
                if isinstance(frame, Ping):
                    conn.send(encode_frame(Pong(frame.token)))
                elif isinstance(frame, Request):
                    with self._handler_slots:
                        self._serve_request(conn, frame)
        except (OSError, FramingError):
            pass  # a broken or hostile peer costs its own connection
        finally:
            self._discard(conn)
