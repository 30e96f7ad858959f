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
clock once somebody traces: ticked when the sender traces, relayed as
heard when it does not but has merged one, and empty otherwise, so an
untraced run ticks, encodes and merges no clock
(:mod:`repro.transport.vclock`).  A
:class:`~repro.transport.base.FaultInjector` drops, duplicates and
crash-kills at the same ordinals on either carrier.

The link is any ``SOCK_STREAM`` socket.  ``endpoint.send`` blocks the
calling thread as a simulated delivery does, because that thread
itself writes the request and waits in ``poll`` for the reply on its
own socket.  Connections are pooled and reused, and a versioned handshake
(:mod:`repro.transport.framing`) rejects incompatible peers at connect
time; :meth:`ExchangeTransport._answer_hello` and
:meth:`ExchangeTransport._judge_welcome` are its two judges.  A carrier
says only how to listen and how to connect (``_bind``, ``_connect``,
``_address_of``, ``add_peer``):
:class:`~repro.transport.tcp.TcpTransport` on ``AF_INET``,
:class:`~repro.transport.shm.ShmTransport` on an abstract ``AF_UNIX``
socket.  Every body travels inline in a ``REQUEST`` or ``REPLY``
frame; a frame nobody waits for (the late duplicate of a reply already
taken, a stray ``PONG``) is dropped.

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

* **The in-flight gate** is a set of ``(sender, exchange id)`` keys
  whose handler runs now and one ``Condition`` on the transport lock.
  A retransmission that finds its key there waits, without a timeout,
  until the run's ``finally`` takes the key out; the run notifies the
  condition only when somebody waits on it, so an exchange nobody
  retransmits builds and signals nothing.  A waiter that then finds
  nothing cached (the handler raised past the error envelope) gives
  up, and the peer retransmits again.
* **One lock** guards the reply cache and gate, the fault ordinals,
  ``retransmissions``, ``dials``, the statistics counters, the pool
  and the set of live connections: callers' threads and serving
  threads touch all of them.
* **Handlers** are bounded by the live connections: each serves one
  request at a time, so no other bound is kept — one would count the
  handlers blocked in their own nested exchanges too, and a deep
  callback chain would wait on itself.  A run is admitted under the
  lock acquisition that looks its request up in the reply cache, and
  its key joins the gate there.
* **The idle check** of a pooled connection is one zero-timeout
  ``poll``, registered once per :class:`Connection`; only a readable
  socket (EOF, ``GOODBYE``, a late duplicate) is drained.
* **A request names no site**: the serving loop takes the sender from
  the connection's ``HELLO`` and runs the reply cache's operations on
  its dict under the lock it holds for the gate anyway.
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
import select
import socket
import threading
import time
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.simnet.clock import CostModel
from repro.simnet.message import Message, MessageKind, next_message_id
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
    MAX_FRAME_BYTES,
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
    fields_encoder,
)
from repro.transport.wallclock import WallClock

#: Idle connections kept per peer for reuse.
POOL_SIZE = 4

#: Bytes asked of the kernel per ``recv``.
RECV_BYTES = 64 * 1024

#: A bulk receive buffer up to this size stays with its connection:
#: fresh pages cost several times the copy (2.3 vs 0.33 ms per 4 MB).
BULK_KEEP = 8 * 1024 * 1024

# A kind and its wire word, both ways: one dict probe each, where the
# enum's own lookup and ``.value`` are Python-level calls.
_KINDS = {kind.value: kind for kind in MessageKind}
_WORDS = {kind: word for word, kind in _KINDS.items()}
_new = object.__new__


class Connection:
    """One stream connection: a socket and the bytes read past a frame.

    One thread at a time uses it: the exchange that took it from the
    pool, or the thread serving it.  The socket is non-blocking until a
    serving thread, past the handshake, makes it blocking.  A
    ``deadline`` is a ``time.monotonic()`` instant: an operation given
    one waits in ``poll`` for what is left of it before each ``send``
    and ``recv`` that cannot go at once, so time one of them used is
    never granted again, and running out is ``socket.timeout`` (an
    ``OSError``).  ``None`` leaves the socket in its own mode.  A
    client's exchange thus costs one ``send``, one ``poll`` and one
    ``recv``, with no timeout to set on the socket.
    """

    __slots__ = ("sock", "peer", "served", "_buffer", "_bulk", "_poll")

    def __init__(self, sock: socket.socket) -> None:
        if sock.family != socket.AF_UNIX:
            # A duplicated request or a GOODBYE behind a reply is
            # write-write-read: Nagle plus delayed ACK stalls that 40 ms.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        self.sock = sock
        self.peer: Optional[str] = None  # known once hands were shaken
        # ``(sender, exchange id)`` of the last request served here.
        self.served: Optional[Tuple[str, int]] = None
        self._buffer = b""
        self._bulk = bytearray()
        # The readiness poll (the idle check's and every deadline's),
        # registered once.
        self._poll = select.poll()
        self._poll.register(sock, select.POLLIN)

    def _wait(self, deadline: float, poll=None) -> None:
        """Wait, until ``deadline`` at most, for the socket to be
        readable (or for ``poll``'s event)."""
        remaining = deadline - time.monotonic()
        # poll() counts whole milliseconds: round up, never down to 0.
        if remaining <= 0 or not (poll or self._poll).poll(
            int(remaining * 1000) + 1
        ):
            raise socket.timeout("timed out")

    def send(self, data: bytes, deadline: Optional[float] = None) -> None:
        if deadline is None:
            self.sock.sendall(data)
            return
        try:
            sent = self.sock.send(data)  # a frame the buffer takes whole
        except BlockingIOError:
            sent = 0
        if sent < len(data):
            self._send_rest(memoryview(data)[sent:], deadline)

    def _send_rest(self, view: memoryview, deadline: float) -> None:
        """Send what a full socket buffer did not take, by ``deadline``."""
        writable = select.poll()
        writable.register(self.sock, select.POLLOUT)
        while view:
            self._wait(deadline, writable)
            try:
                view = view[self.sock.send(view):]
            except BlockingIOError:
                pass

    def read_frame(self, deadline: Optional[float] = None):
        """Read one frame; ``None`` on clean EOF."""
        start = LENGTH_PREFIX.size
        while len(self._buffer) < start:
            if deadline is not None:
                self._wait(deadline)
            chunk = self.sock.recv(RECV_BYTES)
            if not chunk:
                if self._buffer:
                    raise FramingError("connection closed mid-prefix")
                return None
            self._buffer += chunk
        buffer = self._buffer
        (length,) = LENGTH_PREFIX.unpack_from(buffer)
        if length > MAX_FRAME_BYTES:
            raise FramingError(
                f"frame length {length} exceeds the "
                f"{MAX_FRAME_BYTES}-byte limit"
            )
        end = start + length
        if len(buffer) >= end:
            self._buffer = buffer[end:]
            return decode_frame(memoryview(buffer)[start:end])
        # Receive the rest into a buffer sized from the prefix.
        body = self._bulk
        if len(body) < length:
            body = bytearray(length)
            if length <= BULK_KEEP:
                self._bulk = body
        view = memoryview(body)[:length]
        have = len(buffer) - start
        view[:have] = memoryview(buffer)[start:]
        while have < length:
            if deadline is not None:
                self._wait(deadline)
            count = self.sock.recv_into(view[have:])
            if not count:
                raise FramingError("connection closed mid-frame")
            have += count
        self._buffer = b""
        return decode_frame(view)

    def idle_alive(self) -> Optional[bool]:
        """Drain what arrived while pooled: True if the connection is
        still good, ``None`` if the peer ended it (EOF or GOODBYE) and
        False if it broke.

        Nobody reads a pooled connection: a peer's EOF or GOODBYE and
        late duplicate replies wait in the kernel for the next taker,
        which drops the latter.
        One zero-timeout ``poll`` says whether anything did; only then
        is the (non-blocking) socket drained.
        """
        if not self._buffer and not self._poll.poll(0):
            return True
        try:
            while True:
                frame = self.read_frame()
                if frame is None or isinstance(frame, Goodbye):
                    return None
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
            clock=WallClock(),
            cost_model=cost_model,
            stats=stats,
        )
        self.site_id = site_id
        self._listen = listen
        # Shared by reference: make_world mutates one peer table in
        # place as each stack's listener comes up.
        self._peers = peers if peers is not None else {}
        self._directory_site = directory_site
        # The per-attempt timeouts: a policy is frozen, so its schedule
        # is worked out once.
        self._timeouts = tuple(
            (retry if retry is not None else RetryPolicy()).timeouts()
        )
        self._faults = faults
        self._protocol_version = protocol_version
        self.endpoint = self.endpoint_class(site_id, self)
        self.address = None
        self.retransmissions = 0
        self.dials: Dict[str, int] = {}
        incarnation = int.from_bytes(os.urandom(4), "big")
        self._exchange_ids = itertools.count((incarnation << 32) | 1)
        self._lock = threading.Lock()
        # The in-flight gate: the ``(sender, exchange id)`` keys whose
        # handler runs now, and the one condition (on ``_lock``) that
        # retransmissions wait on — notified only when somebody does.
        self._inflight: Set[Tuple[str, int]] = set()
        self._waiting = 0
        self._gate = threading.Condition(self._lock)
        self._pool: Dict[str, List[Connection]] = {}
        # Peers whose last connection the peer ended (EOF or GOODBYE):
        # a refused connect to one of them ends the exchange at once.
        # Marked only on a failure path, cleared by the next dial.
        self._ended: Set[str] = set()
        # Every live connection (pooled, in an exchange, being served),
        # so that close() can wake whoever is blocked on one.
        self._conns: Set[Connection] = set()
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._started = False
        # Between start() and close(): read by every exchange, where
        # the event's ``is_set`` would be a call.
        self._running = False
        self._closed = threading.Event()
        # The REQUEST and REPLY encoders, fed the fields themselves.
        self._encode_request = fields_encoder(Request)
        self._encode_reply = fields_encoder(Reply)

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

    # -- lifecycle ------------------------------------------------------------

    def start(self):
        """Start listening; return the bound address, or ``None`` for
        a client-only transport."""
        if self._started:
            raise TransportError(
                f"transport for {self.site_id!r} already started"
            )
        self._started = True
        self._running = True
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
        if not self._running:
            return
        self._running = False
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
        if not self._running:
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
        if not self._running:
            self._check_running()
        deadline = time.monotonic() + timeout if timeout is not None else None
        address = self._peers.get(dst) or self._resolve(dst)
        exchange_id = next(self._exchange_ids)
        # The request carries this site's vector clock once somebody
        # traces (ticked here, or relayed as heard), and the responder
        # merges it before running the handler.  Encoded once: every
        # retransmission carries the same clock.
        vclock = self.endpoint.vclock
        if self.stats.tracing:
            clock = vclock.tick_wire()
        else:
            clock = vclock.relay_wire() if vclock.entries else ()
        reply, unnoted = self._run_attempts(
            dst,
            address,
            exchange_id,
            self._encode_request(
                exchange_id, _WORDS[kind], reply_kind is not None, clock,
                payload,
            ),
            kind,
            payload,
            timeout,
            deadline,
        )
        # The reply carries the responder's clock on the same rule:
        # merging it makes everything the handler did happen-before
        # this site's next traced event.
        if reply.clock:
            vclock.merge_wire(reply.clock)
        body = reply.payload
        ok = reply.status == STATUS_OK and (reply_kind is not None or not body)
        # One acquisition counts the untraced request transmissions and
        # the reply (traced, it is stamped after the merge above).
        with self._lock:
            stats = self.stats
            if unnoted:
                stats.count_message(kind, len(payload), unnoted)
            if ok and reply_kind is not None:
                if stats.tracing:
                    self.note_message(
                        Message(dst, self.site_id, reply_kind, body),
                        stamp=self.endpoint.stamp(),
                    )
                else:
                    stats.count_message(reply_kind, len(body))
        if ok:
            return body if reply_kind is not None else b""
        if reply.status == STATUS_HANDLER_ERROR:
            raise RemoteHandlerError(
                f"{kind.value} handler at {dst!r} failed: "
                f"{bytes(body).decode('utf-8', 'replace')}"
            )
        if reply.status != STATUS_OK:
            raise TransportError(
                f"bad reply status {reply.status!r} from {dst!r}"
            )
        raise TransportError(
            f"one-way {kind} message to {dst!r} produced a reply"
        )

    def _run_attempts(
        self, dst: str, address, exchange_id: int, encoded: bytes,
        kind: MessageKind, payload, cap: Optional[float],
        deadline: Optional[float],
    ) -> Tuple[Reply, int]:
        """The retry loop: connect, transmit, wait, back off.  Returns
        the reply and how many transmissions of the attempt that got it
        are still to be counted; ``encoded`` is the request carrying
        ``payload``.  A transmission counts once it is attempted, so a
        send that raises counts too.  A traced one is stamped just
        before it leaves: the peer may ask this site for data before
        ``send`` returns, and what this site does serving that request
        must happen-after the send.  An untraced one is counted when
        its attempt ends, the last attempt's by the caller, with the
        reply."""
        faults = self._faults
        tracing = self.stats.tracing
        attempts = 0
        last_error: Optional[BaseException] = None
        for timeout in self._timeouts:
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
                if isinstance(exc, ConnectionRefusedError) and (
                    dst in self._ended
                ):
                    # The peer ended its last connection and nobody
                    # listens any more: it is gone, not slow.
                    raise TransportError(
                        f"{kind.value} exchange {self.site_id!r}->"
                        f"{dst!r} failed: the peer closed its connection "
                        f"and refuses a new one ({exc})"
                    ) from None
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
                    self._note(self.site_id, dst, kind, payload)
                    self._note_loss(f"{kind.value} {self.site_id}->{dst}")
                elif action == FaultInjector.DUPLICATE:
                    copies = 2
            until = time.monotonic() + timeout
            unnoted = 0
            try:
                for copy in range(copies):
                    if tracing:
                        self._note(self.site_id, dst, kind, payload)
                    else:
                        unnoted += 1
                    conn.send(encoded, until)
                    if faults is not None and not copy:
                        with self._lock:
                            if faults.crash_after_send(kind):
                                # Planned death: the peer will process
                                # the frame, its reply finds nobody.
                                os._exit(FaultInjector.CRASH_EXIT_CODE)
                reply = self._await(conn, exchange_id, until)
            except OSError as exc:
                last_error = exc
                self._discard(conn)
                with self._lock:
                    if unnoted:
                        self.stats.count_message(kind, len(payload), unnoted)
                    self.retransmissions += 1
                    self.note_timeout(
                        f"{kind.value} exchange {self.site_id}->{dst} "
                        "timed out; retransmitting",
                        site=self.site_id,
                    )
                continue
            except BaseException:
                self._discard(conn)
                if unnoted:
                    with self._lock:
                        self.stats.count_message(kind, len(payload), unnoted)
                raise
            self._release(dst, conn)
            return reply, unnoted
        raise TransportError(
            f"{kind.value} exchange {self.site_id!r}->{dst!r} failed "
            f"after {attempts} attempts ({last_error})"
        )

    def _note(self, src: str, dst: str, kind: MessageKind, payload) -> None:
        """Count one transmitted message; stamp and trace it when
        tracing (the only time it is built as a :class:`Message`)."""
        with self._lock:
            if self.stats.tracing:
                self.note_message(
                    Message(src, dst, kind, payload),
                    stamp=self.endpoint.stamp(),
                )
            else:
                self.stats.count_message(kind, len(payload))

    def _note_loss(self, what: str) -> None:
        self.stats.record_event(
            self.clock.now,
            "loss",
            f"injected drop of {what}",
            data={"site": self.site_id},
        )

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
            except BaseException:
                self._discard(conn)
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
    ) -> Union[Reply, Pong]:
        """Read up to the REPLY or PONG answering ``ident`` (ids and
        tokens share one counter); any other REPLY is the late
        duplicate of an exchange already completed, and dropped."""
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
                self._ended.add(conn.peer)
                raise ConnectionResetError("connection lost")
            if isinstance(frame, Reply) and frame.exchange_id == ident:
                return frame
            if isinstance(frame, Pong) and frame.token == ident:
                return frame

    def _acquire(self, dst: str, address) -> Connection:
        """A connection to ``dst`` for this thread's exclusive use;
        ``OSError`` if none can be made."""
        while True:
            with self._lock:
                pool = self._pool.get(dst)
                if not pool:
                    break
                conn = pool.pop()
            alive = conn.idle_alive()
            if alive:
                return conn
            # The peer went away (restarted, say) while this sat idle:
            # nothing was lost, so dial afresh, not a retransmission.
            if alive is None:
                self._ended.add(dst)
            self._discard(conn)
        return self._dial(dst, address)

    def _release(self, dst: str, conn: Connection) -> None:
        """Give ``conn`` back after a completed exchange."""
        with self._lock:
            pool = self._pool.setdefault(dst, [])
            if len(pool) < POOL_SIZE and self._running:
                pool.append(conn)
                return
        self._discard(conn)

    def _discard(self, conn: Connection) -> None:
        """Close ``conn``, which may hold half a frame."""
        with self._lock:
            self._conns.discard(conn)
        conn.close()

    def _dial(self, dst: str, address) -> Connection:
        deadline = time.monotonic() + HANDSHAKE_TIMEOUT
        conn = Connection(self._connect(address))
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
                self._ended.discard(dst)
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
            conn = Connection(sock)
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
            deadline = time.monotonic() + HANDSHAKE_TIMEOUT
            hello = conn.read_frame(deadline)
            answer = self._answer_hello(hello)
            conn.send(encode_frame(answer), deadline)
            if isinstance(answer, Goodbye):
                return
            peer = conn.peer = hello.site_id
            conn.sock.settimeout(None)  # from here on, block
            while True:
                frame = conn.read_frame()
                if frame.__class__ is Request:
                    # The connection names both ends of its exchanges.
                    fill = frame.__dict__
                    fill["src"] = peer
                    fill["dst"] = self.site_id
                    self._serve_request(conn, frame)
                elif frame is None or isinstance(frame, Goodbye):
                    break
                elif isinstance(frame, Ping):
                    conn.send(encode_frame(Pong(frame.token)))
        except (OSError, FramingError):
            pass  # a broken or hostile peer costs its own connection
        finally:
            self._discard(conn)

    def _serve_request(self, conn: Connection, request: Request) -> None:
        """Run (or replay) one exchange and push its reply.

        The reply cache's operations run on its dict, within the one
        lock acquisition before the handler and the one after it that
        the in-flight gate takes anyway.
        """
        key = (request.src, request.exchange_id)
        cache = self.endpoint.reply_cache
        entries = cache.entries
        with self._lock:
            if conn.served != key:
                # The client has read the reply to the request served
                # before this one here: nobody will ask for it again.
                entries.pop(conn.served, None)
                conn.served = key
            encoded = entries.get(key) if entries else None
            run = encoded is None and key not in self._inflight
            if run:
                self._inflight.add(key)
            else:
                if encoded is None:
                    # A retransmission while the first transmission's
                    # handler still runs: wait for that one run.
                    self._waiting += 1
                    try:
                        while key in self._inflight:
                            self._gate.wait()
                    finally:
                        self._waiting -= 1
                    encoded = entries.get(key)
                    if encoded is None:
                        return  # that run died; the peer will retransmit
                # A hit: recency refreshed and counted, as ``get`` does.
                entries.move_to_end(key)
                cache.retransmission_hits += 1
        if run:
            try:
                encoded = self._execute(request)
            finally:
                with self._lock:
                    if encoded is not None:
                        # A new key, so it joins at the recent end, as
                        # ``put`` leaves it.
                        entries[key] = encoded
                        if len(entries) > cache.limit:
                            entries.popitem(last=False)
                    self._inflight.discard(key)
                    if self._waiting:
                        self._gate.notify_all()
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
        vclock = self.endpoint.vclock
        try:
            kind = _KINDS[request.kind]
            if self._faults is not None:
                with self._lock:
                    if self._faults.crash_on_receive(kind):
                        # Planned death before the handler can run.
                        os._exit(FaultInjector.CRASH_EXIT_CODE)
            # Observe the sender's piggybacked clock, if it sent one,
            # before the handler runs, so every event the handler
            # records happens-after everything the sender did up to
            # this exchange.
            if request.clock:
                vclock.merge_wire(request.clock)
            # Built field by field: the dataclass ``__init__`` is a
            # frame of its own.
            message = _new(Message)
            message.src = request.src
            message.dst = request.dst
            message.kind = kind
            message.payload = request.payload
            message.msg_id = next_message_id()
            body = self.endpoint.handle(message)
            if not request.expects_reply and body:
                raise TransportError(
                    f"one-way {kind} message produced a reply"
                )
            status = STATUS_OK
        except Exception as exc:  # noqa: BLE001 - ship transport errors
            status = STATUS_HANDLER_ERROR
            body = f"{type(exc).__name__}: {exc}".encode("utf-8")
        if self.stats.tracing:
            clock = vclock.tick_wire()
        else:
            clock = vclock.relay_wire() if vclock.entries else ()
        return self._encode_reply(request.exchange_id, status, clock, body)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.site_id!r}, "
            f"address={self.address!r})"
        )
