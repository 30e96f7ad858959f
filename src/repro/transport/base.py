"""The transport abstraction every runtime speaks through.

Extracted from :class:`repro.simnet.network.Network`: the runtimes
never cared that the simulator delivered messages synchronously — they
only ever used a *site-shaped* object (``register_handler`` + ``send``)
and a *network-shaped* object (``clock`` + ``cost_model`` + ``stats``).
This module names that contract so a real inter-process transport can
slot in underneath the same runtimes, baselines, name service, tests
and benchmarks.

The pieces of the Birrell-Nelson at-most-once machinery that both
backends share also live here: the :class:`ReplyCache` (the receiver
half — a retransmitted exchange returns the cached reply instead of
re-running the handler) and the :class:`RetryPolicy` (the sender half —
timeout, exponential backoff, bounded attempts).  What the two real
carriers share beyond that is here as well, so neither imports the
other: the :class:`FaultInjector`, :data:`HANDSHAKE_TIMEOUT` and the
:class:`HandshakeError` / :class:`RemoteHandlerError` types.
"""

from __future__ import annotations

import abc
import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    Optional,
    Set,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at runtime: simnet.network implements this
    # module's ABCs, so a module-level import here would be circular.
    from repro.simnet.clock import CostModel
    from repro.simnet.message import Message, MessageKind
    from repro.simnet.stats import StatsCollector

from repro.transport.vclock import VectorClock

Handler = Callable[["Message"], bytes]

#: How long connect + handshake may take before the attempt fails.
HANDSHAKE_TIMEOUT = 5.0


class TransportError(Exception):
    """A transport-level failure the runtimes cannot recover from."""


class HandshakeError(TransportError):
    """The peer refused the connection or speaks another protocol."""


class RemoteHandlerError(TransportError):
    """The remote handler raised outside the RPC error envelope."""


class ReplyCache:
    """LRU cache of replies keyed by exchange id.

    The receiver half of at-most-once RPC: a retransmitted request
    (same key) returns the cached reply without re-running the handler,
    so handler side effects happen exactly once per logical send.

    Eviction is least-recently-*used*: a hit refreshes the entry's
    recency, so a hot exchange id being retransmitted is not evicted
    before cold ones merely because it was inserted earlier.  A carrier
    that knows a reply can no longer be asked for retires it early
    (:meth:`discard`).  ``retransmission_hits`` counts duplicate
    *requests* answered from the cache instead of re-running the
    handler.
    """

    def __init__(self, limit: int = 4096) -> None:
        if limit < 1:
            raise ValueError(f"bad reply cache limit {limit!r}")
        self.limit = limit
        self._entries: "OrderedDict[Hashable, bytes]" = OrderedDict()
        self.retransmission_hits = 0

    def get(self, key: Hashable) -> Optional[bytes]:
        """The cached reply for ``key``, refreshing its recency."""
        reply = self._entries.get(key)
        if reply is not None:
            self._entries.move_to_end(key)
            self.retransmission_hits += 1
        return reply

    def put(self, key: Hashable, reply: bytes) -> None:
        """Cache ``reply``, evicting the least recently used entries."""
        self._entries[key] = reply
        self._entries.move_to_end(key)
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)

    def discard(self, key: Hashable) -> None:
        """Retire the reply for ``key``, if cached: acknowledged."""
        self._entries.pop(key, None)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class RetryPolicy:
    """Sender-side retransmission schedule: timeout, backoff, bound.

    Attributes:
        timeout: seconds to wait for the first reply.
        backoff: multiplier applied to the timeout after each failure.
        max_timeout: ceiling the growing timeout saturates at.
        max_attempts: total transmissions before the exchange fails.
    """

    timeout: float = 0.25
    backoff: float = 2.0
    max_timeout: float = 2.0
    max_attempts: int = 8

    def __post_init__(self) -> None:
        if self.timeout <= 0 or self.backoff < 1.0 or self.max_attempts < 1:
            raise ValueError(f"bad retry policy {self!r}")

    def timeouts(self) -> Iterator[float]:
        """Yield the per-attempt timeouts, exponentially backed off."""
        current = self.timeout
        for _ in range(self.max_attempts):
            yield min(current, self.max_timeout)
            current *= self.backoff


class FaultInjector:
    """Deterministic wire faults for exercising the retry machinery.

    ``drop_requests`` / ``duplicate_requests`` / ``drop_replies`` are
    1-based indices into this site's sequence of outgoing request
    (resp. reply) transmissions; ``loss_rate`` adds seeded random drops
    of both on top for chaos-style tests.

    ``crash_sends`` / ``crash_recvs`` map a message-kind value to a
    1-based ordinal N: the *process* exits hard (``os._exit``) right
    after transmitting (resp. right before handling) its Nth frame of
    that kind — the deterministic process-kill primitive behind the
    crash-matrix tests.  A crash-send dies with the frame already on
    the wire (the peer processes it; the reply is lost with the
    sender); a crash-recv dies before the handler runs.
    """

    DROP = "drop"
    DUPLICATE = "duplicate"

    #: Exit status of an injected crash, so harnesses can tell a
    #: planned death from an accidental one.
    CRASH_EXIT_CODE = 86

    def __init__(
        self,
        drop_requests: Iterable[int] = (),
        duplicate_requests: Iterable[int] = (),
        drop_replies: Iterable[int] = (),
        loss_rate: float = 0.0,
        seed: int = 0,
        crash_sends: Optional[Dict[str, int]] = None,
        crash_recvs: Optional[Dict[str, int]] = None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"bad loss rate {loss_rate!r}")
        self.drop_requests = frozenset(drop_requests)
        self.duplicate_requests = frozenset(duplicate_requests)
        self.drop_replies = frozenset(drop_replies)
        self.loss_rate = loss_rate
        self.crash_sends = dict(crash_sends or {})
        self.crash_recvs = dict(crash_recvs or {})
        from repro.simnet.message import MessageKind

        # An ordinal below 1 names no frame and an unknown kind no
        # message, so the fault would never fire and the run would pass
        # without the fault it planned.
        kinds = {kind.value for kind in MessageKind}
        sends, recvs = self.crash_sends.items(), self.crash_recvs.items()
        for clause, kind, n in (
            *((f"drop-request={n}", None, n) for n in self.drop_requests),
            *((f"dup-request={n}", None, n) for n in self.duplicate_requests),
            *((f"drop-reply={n}", None, n) for n in self.drop_replies),
            *((f"crash-send={k}:{n}", k, n) for k, n in sends),
            *((f"crash-recv={k}:{n}", k, n) for k, n in recvs),
        ):
            if n < 1:
                raise ValueError(
                    f"bad fault clause {clause!r}: ordinals count from 1"
                )
            if kind is not None and kind not in kinds:
                raise ValueError(
                    f"bad fault clause {clause!r}: no message kind {kind!r}"
                )
        self._rng = random.Random(seed)
        self._requests_seen = 0
        self._replies_seen = 0
        self._sends_by_kind: Dict[str, int] = {}
        self._recvs_by_kind: Dict[str, int] = {}

    def request_action(self) -> Optional[str]:
        """Fault to apply to the next outgoing request frame, if any."""
        self._requests_seen += 1
        if self._requests_seen in self.drop_requests:
            return self.DROP
        if self._requests_seen in self.duplicate_requests:
            return self.DUPLICATE
        if self.loss_rate and self._rng.random() < self.loss_rate:
            return self.DROP
        return None

    def reply_action(self) -> Optional[str]:
        """Fault to apply to the next outgoing reply frame, if any."""
        self._replies_seen += 1
        if self._replies_seen in self.drop_replies:
            return self.DROP
        if self.loss_rate and self._rng.random() < self.loss_rate:
            return self.DROP
        return None

    def crash_after_send(self, kind: "MessageKind") -> bool:
        """Whether the process must die now, having sent this frame."""
        planned = self.crash_sends.get(kind.value)
        if planned is None:
            return False
        seen = self._sends_by_kind.get(kind.value, 0) + 1
        self._sends_by_kind[kind.value] = seen
        return seen == planned

    def crash_on_receive(self, kind: "MessageKind") -> bool:
        """Whether the process must die now, before handling this frame."""
        planned = self.crash_recvs.get(kind.value)
        if planned is None:
            return False
        seen = self._recvs_by_kind.get(kind.value, 0) + 1
        self._recvs_by_kind[kind.value] = seen
        return seen == planned

    @classmethod
    def parse(cls, spec: str) -> "FaultInjector":
        """Build an injector from a CLI spec.

        ``spec`` is a comma-separated list of ``drop-request=N``,
        ``dup-request=N``, ``drop-reply=N``, ``loss=RATE``, ``seed=N``,
        ``crash-send=KIND:N`` and ``crash-recv=KIND:N`` clauses, e.g.
        ``drop-request=1,crash-recv=writeback_prepare:1``.
        """
        drop_requests: Set[int] = set()
        duplicate_requests: Set[int] = set()
        drop_replies: Set[int] = set()
        crash_sends: Dict[str, int] = {}
        crash_recvs: Dict[str, int] = {}
        loss_rate = 0.0
        seed = 0
        for clause in filter(None, spec.split(",")):
            name, _, value = clause.partition("=")
            try:
                if name == "drop-request":
                    drop_requests.add(int(value))
                elif name == "dup-request":
                    duplicate_requests.add(int(value))
                elif name == "drop-reply":
                    drop_replies.add(int(value))
                elif name == "loss":
                    loss_rate = float(value)
                elif name == "seed":
                    seed = int(value)
                elif name in ("crash-send", "crash-recv"):
                    kind, _, ordinal = value.partition(":")
                    target = (
                        crash_sends if name == "crash-send" else crash_recvs
                    )
                    target[kind] = int(ordinal) if ordinal else 1
                else:
                    raise ValueError(name)
            except ValueError:
                raise ValueError(
                    f"bad fault clause {clause!r} (expected "
                    "drop-request=N, dup-request=N, drop-reply=N, "
                    "loss=RATE, seed=N, crash-send=KIND:N or "
                    "crash-recv=KIND:N)"
                ) from None
        return cls(
            drop_requests=drop_requests,
            duplicate_requests=duplicate_requests,
            drop_replies=drop_replies,
            loss_rate=loss_rate,
            seed=seed,
            crash_sends=crash_sends,
            crash_recvs=crash_recvs,
        )


class Endpoint(abc.ABC):
    """One address space's attachment point to a transport.

    A runtime installs one handler per :class:`MessageKind` and sends
    messages to peers by site id; the transport below decides whether
    that is a synchronous simulated delivery or a framed TCP exchange.
    """

    #: Exception type raised when no handler matches an incoming kind;
    #: implementations may narrow it to their own error hierarchy.
    no_handler_error = TransportError

    def __init__(self, site_id: str) -> None:
        self.site_id = site_id
        self._handlers: Dict[MessageKind, Handler] = {}
        self.reply_cache = ReplyCache()
        self.vclock = VectorClock(site_id)

    def stamp(self, session: Optional[str] = None) -> Dict[str, object]:
        """Causal stamp for one trace event recorded at this site.

        Ticks the site's vector clock and returns the ``site`` /
        ``seq`` / ``vc`` triple every protocol event carries: the
        recording site, a per-(site, session) monotonic sequence, and
        the post-tick vector-clock snapshot.
        """
        return {
            "site": self.site_id,
            "seq": self.vclock.next_seq(session),
            "vc": self.vclock.tick(),
        }

    def register_handler(self, kind: MessageKind, handler: Handler) -> None:
        """Install ``handler`` for incoming messages of ``kind``."""
        self._handlers[kind] = handler

    def handle(self, message: Message) -> bytes:
        """Dispatch an incoming message to its registered handler."""
        handler = self._handlers.get(message.kind)
        if handler is None:
            raise self.no_handler_error(
                f"site {self.site_id!r} has no handler for {message.kind}"
            )
        return handler(message)

    def handle_at_most_once(
        self, exchange_key: Hashable, message: Message
    ) -> bytes:
        """Dispatch, executing the handler at most once per exchange.

        A retransmitted request (same exchange key) returns the cached
        reply without re-running the handler — the receiver half of
        at-most-once RPC semantics.
        """
        cached = self.reply_cache.get(exchange_key)
        if cached is not None:
            return cached
        reply = self.handle(message)
        self.reply_cache.put(exchange_key, reply)
        return reply

    @abc.abstractmethod
    def send(
        self,
        dst: str,
        kind: MessageKind,
        payload: bytes,
        reply_kind: Optional[MessageKind] = None,
        timeout: Optional[float] = None,
    ) -> bytes:
        """Send one message to ``dst``; return the reply body.

        When ``reply_kind`` is ``None`` the message is one-way: the
        handler must produce no reply body and ``b""`` is returned.

        ``timeout`` caps the whole exchange (including retransmits) in
        seconds; the exchange fails with :class:`TransportError` once
        it elapses instead of running the full retry schedule.
        Backends with synchronous delivery (the simulator) may ignore
        it.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.site_id!r})"


class Transport(abc.ABC):
    """What connects endpoints: clock, cost model, stats, delivery.

    Implementations provide the three shared accounting objects the
    runtimes charge to (``clock``, ``cost_model``, ``stats``) and the
    actual message delivery behind each endpoint's ``send``.
    """

    def __init__(
        self,
        clock=None,
        cost_model: Optional[CostModel] = None,
        stats: Optional[StatsCollector] = None,
    ) -> None:
        from repro.simnet.clock import CostModel as _CostModel
        from repro.simnet.clock import SimClock as _SimClock
        from repro.simnet.stats import StatsCollector as _StatsCollector

        # ``clock`` is anything clock-shaped (``now`` + ``advance``):
        # the simulator's SimClock or a transport's WallClock.
        self.clock = clock if clock is not None else _SimClock()
        self.cost_model = (
            cost_model if cost_model is not None else _CostModel()
        )
        self.stats = stats if stats is not None else _StatsCollector()

    def close(self) -> None:
        """Release transport resources (connections, threads, ports)."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- shared accounting ----------------------------------------------------

    def note_message(
        self, message: Message, stamp: Optional[dict] = None
    ) -> None:
        """Count and trace one transmitted message.

        Both backends record the same ``message`` event shape, so the
        offline trace tooling (:mod:`repro.simnet.tracefmt`,
        :mod:`repro.analysis.trace_rules`) reads simulated and real
        runs identically.  ``stamp`` is the sending endpoint's causal
        stamp (:meth:`Endpoint.stamp`) when the carrier has one in
        hand.
        """
        self.stats.record_message(message)
        if not self.stats.tracing:
            return
        data = {
            "src": message.src,
            "dst": message.dst,
            "kind": message.kind.value,
            "size": message.size,
        }
        if stamp:
            data.update(stamp)
        self.stats.record_event(
            self.clock.now,
            "message",
            f"{message.src}->{message.dst} {message.kind.value} "
            f"{message.size}B",
            data=data,
        )

    def note_timeout(
        self, detail: str = "retransmitting", site: Optional[str] = None
    ) -> None:
        """Trace one retransmission timeout at ``site`` (the sender)."""
        if not self.stats.tracing:
            return
        self.stats.record_event(
            self.clock.now,
            "timeout",
            detail,
            data={"site": site} if site else None,
        )
