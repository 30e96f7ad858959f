"""The simulated network and its endpoints.

A :class:`Network` connects :class:`Site` endpoints.  Sending a message
charges simulated time (latency + bandwidth) to the shared clock and
then synchronously invokes the destination site's handler for the
message kind.  Handlers return a reply payload where the protocol calls
for one; the reply is itself charged as a message.

Synchronous delivery is faithful to the paper's model: an RPC session
has exactly one active thread, so the sender is always blocked while
the receiver works.

The network is reliable by default (the paper's evaluation assumes a
quiet Ethernet).  A site added with a
:class:`~repro.transport.base.FaultInjector` — the one a tcp or shm
transport takes for its process — drops, duplicates and crash-kills at
the ordinals it counts on those carriers.  Exchanges then run the
classic Birrell-Nelson machinery: timeout, retransmission, and
at-most-once execution via the receiver's reply cache keyed by exchange
id, whose entry leaves the cache when the exchange finishes (the
synchronous twin of the real carriers' implicit acknowledgement).

:class:`Network` and :class:`Site` implement the pluggable transport
contract in :mod:`repro.transport.base` (which was extracted from this
module); :class:`repro.transport.tcp.TcpTransport` is the real
inter-process implementation of the same contract.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.simnet.clock import CostModel, SimClock
from repro.simnet.message import Message, MessageKind
from repro.simnet.stats import StatsCollector
from repro.transport.base import (
    Endpoint,
    FaultInjector,
    Handler,
    Transport,
    TransportError as _BaseTransportError,
)

__all__ = ["Handler", "Network", "NetworkError", "Site", "TransportError"]

_MAX_ATTEMPTS = 24
#: Simulated seconds a sender waits for a reply before retransmitting.
_RETRANSMIT_TIMEOUT = 2e-3
_exchange_ids = itertools.count(1)


class NetworkError(Exception):
    """Raised for malformed network usage (unknown site, no handler)."""


class TransportError(NetworkError, _BaseTransportError):
    """An exchange failed even after every retransmission."""


class Site(Endpoint):
    """One endpoint (machine + process) on the simulated network.

    A site is identified by its ``site_id`` string — the paper's
    "address space identifier (typically a pair consisting of a site ID
    and a process ID)".  Runtimes register one handler per message kind.
    ``faults`` is the site's :class:`FaultInjector`, if any.
    """

    no_handler_error = NetworkError

    def __init__(
        self,
        site_id: str,
        network: "Network",
        faults: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__(site_id)
        self.network = network
        self.faults = faults

    def send(
        self,
        dst: str,
        kind: MessageKind,
        payload: bytes,
        reply_kind: Optional[MessageKind] = None,
        timeout: Optional[float] = None,
    ) -> bytes:
        """Send a message from this site; see :meth:`Network.send`.

        ``timeout`` is accepted for transport-contract compatibility
        and ignored: simulated delivery is synchronous, so an exchange
        either completes now or fails now.
        """
        return self.network.send(self.site_id, dst, kind, payload, reply_kind)


def _failed(message: Message, why: str) -> TransportError:
    return TransportError(
        f"{message.kind} exchange {message.src!r}->{message.dst!r} "
        f"failed: {why}"
    )


class Network(Transport):
    """A deterministic point-to-point network with a shared cost model."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        cost_model: Optional[CostModel] = None,
        stats: Optional[StatsCollector] = None,
    ) -> None:
        super().__init__(clock=clock, cost_model=cost_model, stats=stats)
        self.retransmissions = 0  # sender timeouts, as on a real carrier
        self._sites: Dict[str, Site] = {}
        # A crashed site neither sends nor receives.
        self._crashed: set = set()

    def add_site(
        self, site_id: str, faults: Optional[FaultInjector] = None
    ) -> Site:
        """Create and register a new endpoint, faulted by ``faults``."""
        if site_id in self._sites:
            raise NetworkError(f"duplicate site id {site_id!r}")
        site = Site(site_id, self, faults)
        self._sites[site_id] = site
        return site

    def site(self, site_id: str) -> Site:
        """Look up an endpoint by id."""
        try:
            return self._sites[site_id]
        except KeyError:
            raise NetworkError(f"unknown site {site_id!r}") from None

    def crash(self, site_id: str) -> None:
        """Mark a site dead: it neither sends nor receives from now on."""
        if site_id not in self._sites:
            raise NetworkError(f"unknown site {site_id!r}")
        self._crashed.add(site_id)

    def is_crashed(self, site_id: str) -> bool:
        """Whether ``site_id`` has crashed."""
        return site_id in self._crashed

    def send(
        self,
        src: str,
        dst: str,
        kind: MessageKind,
        payload: bytes,
        reply_kind: Optional[MessageKind] = None,
    ) -> bytes:
        """Deliver one message and, optionally, account its reply.

        The destination handler runs synchronously and its return value
        is the reply body.  When ``reply_kind`` is given the reply is
        charged to the network as its own message; otherwise the handler
        must return ``b""`` and no reply is charged (one-way message).

        The sender's injector decides each request transmission and the
        receiver's each reply; a lost frame costs a timeout and a
        retransmission, and the handler's effects happen at most once.
        """
        source = self._sites.get(src)
        if source is None:
            raise NetworkError(f"unknown source site {src!r}")
        destination = self.site(dst)
        message = Message(src=src, dst=dst, kind=kind, payload=payload)
        if src in self._crashed:
            raise _failed(message, f"source site {src!r} has crashed")
        if dst in self._crashed:
            # Every retransmission to a dead peer times out, exactly
            # like a real carrier's exhausted retry schedule.
            self._timeout(src)
            raise _failed(message, f"destination site {dst!r} has crashed")
        sender, receiver = source.faults, destination.faults
        # Without an injector at either end nothing is retransmitted,
        # so the exchange needs no id and its reply no caching.
        key = (src, next(_exchange_ids)) if sender or receiver else None
        try:
            for _ in range(_MAX_ATTEMPTS):
                action = sender.request_action() if sender else None
                self._charge(message)
                if action == FaultInjector.DROP:
                    self._timeout(src)
                    continue
                # A crash-send kills the sender once the frame is out:
                # the receiver processes it, the reply finds nobody.
                dies = sender is not None and sender.crash_after_send(kind)
                response = self._deliver(source, destination, message, key)
                if dies:
                    self.crash(src)
                    raise _failed(
                        message, f"source site {src!r} crashed after send"
                    )
                answered = receiver is None or not receiver.reply_action()
                if action == FaultInjector.DUPLICATE:
                    # The copy replays the cached reply, answered again.
                    self._charge(message)
                    self._deliver(source, destination, message, key)
                    if receiver is None or not receiver.reply_action():
                        answered = True
                if not answered:
                    self._timeout(src)
                    continue
                if reply_kind is not None:
                    self._charge(Message(dst, src, reply_kind, response))
                elif response:
                    raise NetworkError(
                        f"one-way {kind} message to {dst!r} produced a reply"
                    )
                # The reply carries the receiver's clock back
                # (synchronous delivery is the acknowledgement).
                source.vclock.merge(destination.vclock.snapshot())
                return response if reply_kind is not None else b""
            raise _failed(message, f"after {_MAX_ATTEMPTS} attempts")
        finally:
            if key is not None:
                destination.reply_cache.discard(key)

    def _deliver(
        self, source: Site, destination: Site, message: Message, key
    ) -> bytes:
        """Run (or replay) one delivered request at ``destination``."""
        faults = destination.faults
        if (
            faults is not None
            and key not in destination.reply_cache
            and faults.crash_on_receive(message.kind)
        ):
            # The receiver dies before processing the frame — its clock
            # never observes the sender's.
            self.crash(message.dst)
            raise _failed(
                message, f"destination site {message.dst!r} crashed on receive"
            )
        # Piggybacked vector clock: the receiver observes the sender's
        # clock before handling.
        destination.vclock.merge(source.vclock.snapshot())
        if key is None:
            return destination.handle(message)
        return destination.handle_at_most_once(key, message)

    def _timeout(self, src: str) -> None:
        self.clock.advance(_RETRANSMIT_TIMEOUT)
        self.retransmissions += 1
        self.note_timeout(site=src)

    def _charge(self, message: Message) -> None:
        self.clock.advance(self.cost_model.message_cost(message.size))
        sender = self._sites.get(message.src)
        stamp = None
        if sender is not None and self.stats.tracing:
            stamp = sender.stamp()
        self.note_message(message, stamp=stamp)
