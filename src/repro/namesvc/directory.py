"""The site directory: where address spaces find each other.

The paper's runtime assumes every address space can reach every other
by its identifier.  Under the in-process simulator that is trivial —
the :class:`~repro.simnet.network.Network` holds all sites in one
dict.  Across OS processes it is not: a process hosting one address
space must learn where its peers listen.  The :class:`SiteDirectory`
is the name-service half of that step — processes register their
``(host, port)`` on startup, refresh a heartbeat while alive, and
deregister on graceful shutdown; any peer can then resolve a site id
to an address (and see how stale its liveness information is).

Like the :class:`~repro.namesvc.server.TypeNameServer`, the directory
is transport-agnostic: it is just handlers on an endpoint, so it runs
over the simulator in tests and over tcp or shm in real deployments.
The lookup encode/decode helpers are module-level so a carrier can
resolve an unknown peer with one raw exchange, without holding a
:class:`DirectoryClient`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.simnet.message import Message, MessageKind
from repro.transport.base import Endpoint, TransportError
from repro.xdr.stream import XdrDecoder, XdrEncoder

_STATUS_OK = 0
_STATUS_UNKNOWN = 1


class DirectoryError(TransportError):
    """A directory operation failed (unknown site, bad reply)."""


@dataclass
class SiteRecord:
    """One registered address space."""

    site_id: str
    host: str
    port: int
    registered_at: float
    last_seen: float


class SiteDirectory:
    """Serves site registration, lookup and heartbeat liveness.

    ``now`` is the time source for liveness ages; it defaults to wall
    time, which is what real deployments want — pass a simulated clock
    reader in tests for determinism.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        now: Optional[Callable[[], float]] = None,
    ) -> None:
        self.endpoint = endpoint
        self.now = now if now is not None else time.time
        self.records: Dict[str, SiteRecord] = {}
        endpoint.register_handler(
            MessageKind.SITE_REGISTER, self._handle_register
        )
        endpoint.register_handler(
            MessageKind.SITE_DEREGISTER, self._handle_deregister
        )
        endpoint.register_handler(
            MessageKind.SITE_LOOKUP, self._handle_lookup
        )
        endpoint.register_handler(
            MessageKind.SITE_HEARTBEAT, self._handle_heartbeat
        )
        endpoint.register_handler(MessageKind.SITE_LIST, self._handle_list)

    # -- handlers -------------------------------------------------------------

    def _handle_register(self, message: Message) -> bytes:
        decoder = XdrDecoder(message.payload)
        site_id = decoder.unpack_string()
        host = decoder.unpack_string()
        port = decoder.unpack_uint32()
        decoder.expect_done()
        moment = self.now()
        self.records[site_id] = SiteRecord(
            site_id=site_id,
            host=host,
            port=port,
            registered_at=moment,
            last_seen=moment,
        )
        encoder = XdrEncoder()
        encoder.pack_uint32(_STATUS_OK)
        return encoder.getvalue()

    def _handle_deregister(self, message: Message) -> bytes:
        decoder = XdrDecoder(message.payload)
        site_id = decoder.unpack_string()
        decoder.expect_done()
        known = self.records.pop(site_id, None)
        encoder = XdrEncoder()
        encoder.pack_uint32(
            _STATUS_OK if known is not None else _STATUS_UNKNOWN
        )
        return encoder.getvalue()

    def _handle_lookup(self, message: Message) -> bytes:
        decoder = XdrDecoder(message.payload)
        site_id = decoder.unpack_string()
        decoder.expect_done()
        record = self.records.get(site_id)
        encoder = XdrEncoder()
        if record is None:
            encoder.pack_uint32(_STATUS_UNKNOWN)
        else:
            encoder.pack_uint32(_STATUS_OK)
            encoder.pack_string(record.host)
            encoder.pack_uint32(record.port)
            encoder.pack_double(max(0.0, self.now() - record.last_seen))
        return encoder.getvalue()

    def _handle_heartbeat(self, message: Message) -> bytes:
        decoder = XdrDecoder(message.payload)
        site_id = decoder.unpack_string()
        decoder.expect_done()
        record = self.records.get(site_id)
        encoder = XdrEncoder()
        if record is None:
            encoder.pack_uint32(_STATUS_UNKNOWN)
        else:
            record.last_seen = self.now()
            encoder.pack_uint32(_STATUS_OK)
        return encoder.getvalue()

    def _handle_list(self, message: Message) -> bytes:
        decoder = XdrDecoder(message.payload)
        decoder.expect_done()
        moment = self.now()
        encoder = XdrEncoder()
        encoder.pack_uint32(_STATUS_OK)
        encoder.pack_uint32(len(self.records))
        for record in sorted(self.records.values(), key=lambda r: r.site_id):
            encoder.pack_string(record.site_id)
            encoder.pack_string(record.host)
            encoder.pack_uint32(record.port)
            encoder.pack_double(max(0.0, moment - record.last_seen))
        return encoder.getvalue()


# -- wire helpers (shared with the carriers' peer resolution) ---------------


def encode_lookup(site_id: str) -> bytes:
    """Payload of one SITE_LOOKUP request."""
    encoder = XdrEncoder()
    encoder.pack_string(site_id)
    return encoder.getvalue()


def decode_lookup_reply(
    payload: bytes, site_id: str
) -> Tuple[str, int, float]:
    """Parse a SITE_LOOKUP reply into ``(host, port, liveness age)``."""
    decoder = XdrDecoder(payload)
    status = decoder.unpack_uint32()
    if status == _STATUS_UNKNOWN:
        raise DirectoryError(
            f"directory does not know site {site_id!r}"
        )
    if status != _STATUS_OK:
        raise DirectoryError(f"bad directory status {status!r}")
    host = decoder.unpack_string()
    port = decoder.unpack_uint32()
    age = decoder.unpack_double()
    decoder.expect_done()
    return host, port, age


class DirectoryClient:
    """Blocking client for the directory, used by process hosts."""

    def __init__(self, endpoint: Endpoint, directory_site: str) -> None:
        self.endpoint = endpoint
        self.directory_site = directory_site

    def _exchange(self, kind: MessageKind, payload: bytes) -> XdrDecoder:
        reply = self.endpoint.send(
            self.directory_site, kind, payload,
            reply_kind=MessageKind.DIR_REPLY,
        )
        return XdrDecoder(reply)

    def register(self, host: str, port: int) -> None:
        """Publish this endpoint's listening address."""
        encoder = XdrEncoder()
        encoder.pack_string(self.endpoint.site_id)
        encoder.pack_string(host)
        encoder.pack_uint32(port)
        decoder = self._exchange(
            MessageKind.SITE_REGISTER, encoder.getvalue()
        )
        status = decoder.unpack_uint32()
        decoder.expect_done()
        if status != _STATUS_OK:
            raise DirectoryError(f"registration refused ({status})")

    def deregister(self) -> bool:
        """Withdraw this endpoint's registration; False if unknown."""
        encoder = XdrEncoder()
        encoder.pack_string(self.endpoint.site_id)
        decoder = self._exchange(
            MessageKind.SITE_DEREGISTER, encoder.getvalue()
        )
        status = decoder.unpack_uint32()
        decoder.expect_done()
        return status == _STATUS_OK

    def heartbeat(self) -> bool:
        """Refresh liveness; False when the directory forgot this site."""
        encoder = XdrEncoder()
        encoder.pack_string(self.endpoint.site_id)
        decoder = self._exchange(
            MessageKind.SITE_HEARTBEAT, encoder.getvalue()
        )
        status = decoder.unpack_uint32()
        decoder.expect_done()
        return status == _STATUS_OK

    def lookup(self, site_id: str) -> Tuple[str, int, float]:
        """Resolve ``site_id`` to ``(host, port, liveness age)``."""
        reply = self.endpoint.send(
            self.directory_site,
            MessageKind.SITE_LOOKUP,
            encode_lookup(site_id),
            reply_kind=MessageKind.DIR_REPLY,
        )
        return decode_lookup_reply(reply, site_id)

    def liveness_ages(self) -> Dict[str, float]:
        """Heartbeat ages for every registered site — the reaper feed.

        A site absent from the map has deregistered, crashed before
        ever registering, or been expired; the orphan reaper
        (:meth:`SmartRpcRuntime.reap_orphans`) treats missing exactly
        like over-age.
        """
        return {
            site_id: age
            for site_id, (_host, _port, age) in self.list().items()
        }

    def list(self) -> Dict[str, Tuple[str, int, float]]:
        """All registered sites as ``site_id -> (host, port, age)``."""
        decoder = self._exchange(MessageKind.SITE_LIST, b"")
        status = decoder.unpack_uint32()
        if status != _STATUS_OK:
            raise DirectoryError(f"bad directory status {status!r}")
        count = decoder.unpack_uint32()
        sites: Dict[str, Tuple[str, int, float]] = {}
        for _ in range(count):
            site_id = decoder.unpack_string()
            host = decoder.unpack_string()
            port = decoder.unpack_uint32()
            age = decoder.unpack_double()
            sites[site_id] = (host, port, age)
        decoder.expect_done()
        return sites
