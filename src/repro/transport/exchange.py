"""The reliable exchange both real carriers run, written once.

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

:class:`ExchangeTransport` is the skeleton; a carrier subclasses it
and supplies its *link*
(:class:`~repro.transport.stream.StreamTransport` is the one both
have):

``_address_of(host, port)``
    A directory record as the address ``_acquire`` dials.
``_acquire(dst, address)`` / ``_release(dst, conn)`` / ``_discard(conn)``
    Take a connection to ``dst`` (dialling and shaking hands if need
    be; ``OSError`` when that fails), give it back after a completed
    exchange, close it after a failed attempt: it may hold half a
    frame.  A refused connect returns at once, so the loop waits the
    attempt's timeout out before the next — the retry schedule spans a
    peer that is just restarting.
``_attempt(conn, ident, encoded, copies, timeout, sent)``
    One attempt: register interest in ``ident``, put ``encoded`` on
    the wire ``copies`` times (0 = dropped in transit, 2 = duplicated)
    calling ``sent(n)`` after the *n*-th, wait at most ``timeout`` for
    the ``Reply`` (or ``Pong``) carrying ``ident`` and return it.
    ``OSError`` means this attempt failed and the next may succeed.
``_push_reply(conn, encoded)``
    Best effort: a reply that does not get out is retransmitted for.

A link moves the handshake's frames and leaves the judging to
``_answer_hello`` and ``_judge_welcome``.  Five payload hooks let the
shared-memory carrier ship a body by reference: ``_request_frame`` /
``_reply_frame`` choose the frame (inline, by default), ``_abandon``
takes back the body of a request nobody will answer, ``_deliver`` /
``_reply_payload`` open what is not a plain ``Request`` / ``Reply``.

Where the two carriers had once drifted apart, one behaviour was
chosen (``tests/transport/exchange_contract.py`` pins each):

* **The in-flight gate** is waited on once, without a timeout (the
  running handler's ``finally`` always opens it); a retransmission that
  then finds nothing cached gives up, and the peer retransmits again.
* **One lock** guards the reply cache and gate, the fault ordinals,
  ``retransmissions``, ``dials`` and the statistics counters: callers'
  threads and serving threads touch all of them on both carriers.
* **Handlers** are bounded by :data:`MAX_HANDLERS`, a constant no
  caller ever chose otherwise: a semaphore the serving threads pass.
* **The running check** is made before every attempt, so a closed
  transport fails at once on either carrier instead of dialling.

:class:`repro.simnet.network.Network` is deliberately not a link: it
delivers synchronously, moves simulated time and no frames, and plans
its drops from the cost model — sharing this loop with it would make
the loop branch on which caller it serves.
"""

from __future__ import annotations

import abc
import itertools
import os
import threading
import time
from typing import Callable, Dict, Iterable, Optional, Tuple, Union

from repro.simnet.clock import CostModel
from repro.simnet.message import Message, MessageKind
from repro.simnet.stats import StatsCollector
from repro.transport.base import (
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
    Frame,
    Goodbye,
    Hello,
    Ping,
    Pong,
    Reply,
    Request,
    Welcome,
    encode_frame,
)
from repro.transport.wallclock import WallClock

#: Requests one transport serves at once.
MAX_HANDLERS = 32


class ExchangeEndpoint(Endpoint):
    """The one address space an :class:`ExchangeTransport` hosts."""

    def __init__(
        self, site_id: str, transport: "ExchangeTransport",
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


def _unsent(_copy: int) -> None:
    """``sent`` for an attempt nobody counts (a PING)."""


class ExchangeTransport(Transport):
    """Retried, at-most-once request/reply exchanges over a link.

    One instance per OS process (or per simulated "process" when tests
    run several transports inside one interpreter).  ``peers`` maps
    site ids to link addresses; unknown destinations are resolved
    through the site directory at ``directory_site`` when configured
    (see :mod:`repro.namesvc.directory`).  Carriers add their link's
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
        reply_cache_limit: int = 4096,
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
        self._listen = listen
        # Shared by reference: make_world mutates one peer table in
        # place as each stack's listener comes up.
        self._peers = peers if peers is not None else {}
        self._directory_site = directory_site
        self._retry = retry if retry is not None else RetryPolicy()
        self._faults = faults
        self._protocol_version = protocol_version
        self._accept_versions = frozenset(
            accept_versions if accept_versions is not None
            else (protocol_version,)
        )
        self.endpoint = self.endpoint_class(
            site_id, self, reply_cache_limit=reply_cache_limit
        )
        self.address = None
        self.retransmissions = 0
        self.dials: Dict[str, int] = {}
        incarnation = int.from_bytes(os.urandom(4), "big")
        self._exchange_ids = itertools.count((incarnation << 32) | 1)
        self._lock = threading.Lock()
        self._inflight: Dict[Tuple[str, int], threading.Event] = {}
        self._started = False
        self._closed = threading.Event()

    # -- the link -------------------------------------------------------------

    @abc.abstractmethod
    def _address_of(self, host: str, port: int):
        """The link address a directory record stands for."""

    @abc.abstractmethod
    def _acquire(self, dst: str, address):
        """A connection to ``dst``; ``OSError`` if none can be made."""

    @abc.abstractmethod
    def _release(self, dst: str, conn) -> None:
        """Give ``conn`` back after a completed exchange."""

    @abc.abstractmethod
    def _discard(self, conn) -> None:
        """Close ``conn`` after a failed attempt."""

    @abc.abstractmethod
    def _attempt(
        self, conn, ident: int, encoded: bytes, copies: int,
        timeout: float, sent: Callable[[int], None],
    ) -> Union[Reply, Pong]:
        """Transmit ``copies`` times, then await the frame for ``ident``."""

    @abc.abstractmethod
    def _push_reply(self, conn, encoded: bytes) -> None:
        """Send one reply image to the requester, best effort."""

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

    def _reply_payload(self, conn, dst: str, reply):
        """The body of a reply, not a plain ``Reply``, that ``conn``
        brought."""
        raise NotImplementedError

    def _deliver(self, conn, request, kind: MessageKind) -> bytes:
        """Run the handler for a request that is not a plain ``Request``."""
        raise NotImplementedError

    def _reply_frame(self, request, body) -> Frame:
        """The frame that carries a successful handler's ``body``."""
        clock = self.endpoint.vclock.tick_wire()
        return Reply(request.exchange_id, STATUS_OK, body, clock=clock)

    # -- lifecycle and addressing ---------------------------------------------

    def _mark_started(self) -> None:
        if self._started:
            raise TransportError(
                f"transport for {self.site_id!r} already started"
            )
        self._started = True

    def _check_running(self) -> None:
        if not self._started or self._closed.is_set():
            state = "closed" if self._started else "not started"
            raise TransportError(
                f"transport for {self.site_id!r} is {state}"
            )

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
        if frame.version not in self._accept_versions:
            supported = ", ".join(map(str, sorted(self._accept_versions)))
            return Goodbye(
                self.site_id,
                f"unsupported protocol version {frame.version} "
                f"(supported: {supported})",
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

        def sent(copy: int) -> None:
            self._note(message)
            if faults is not None and not copy:
                with self._lock:
                    if faults.crash_after_send(kind):
                        # Planned death: the peer will process the
                        # frame, its reply finds nobody.
                        os._exit(FaultInjector.CRASH_EXIT_CODE)

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
                    # simulator's lossy path does exactly this.
                    copies = 0
                    self._note(message)
                    self._note_loss(f"{kind.value} {self.site_id}->{dst}")
                elif action == FaultInjector.DUPLICATE:
                    copies = 2
            try:
                reply = self._attempt(
                    conn, exchange_id, encoded, copies, timeout, sent
                )
            except OSError as exc:
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
        conn,
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
                self._attempt(conn, token, ping, 1, timeout, _unsent)
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

    # -- server side ----------------------------------------------------------

    def _serve_request(self, conn, request) -> None:
        """Run (or replay) one exchange and push its reply."""
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
        self._push_reply(conn, encoded)

    def _execute(self, conn, request) -> bytes:
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
