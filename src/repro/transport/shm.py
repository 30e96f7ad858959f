"""A same-machine carrier: the exchange link over an abstract ``AF_UNIX``
socket.

:class:`ShmTransport` is the third carrier beside the simulator and
:class:`~repro.transport.tcp.TcpTransport`.  It speaks the exact same
:class:`~repro.transport.base.Transport` / ``Endpoint`` contract —
every runtime, workload, benchmark and test runs on it unmodified via
``make_world(transport="shm")``.  The exchange, the link, the frames
and the handshake are :class:`~repro.transport.exchange.ExchangeTransport`'s,
as tcp's are; the two carriers differ only in address family.

A started transport listens on an ``AF_UNIX`` stream socket in the
abstract namespace at ``"\\0" + name`` (``srpc-<hex>``): no file to
leak, gone with the process.  The bare name is the transport's
published address — directory registrations carry it in the ``host``
field with port 0.
"""

from __future__ import annotations

import os
import socket
from typing import Tuple, Union

from repro.transport.base import HANDSHAKE_TIMEOUT
from repro.transport.exchange import ExchangeEndpoint, ExchangeTransport

#: Transport names — the listening socket's abstract address — start
#: with this.
NAME_PREFIX = "srpc-"


class ShmEndpoint(ExchangeEndpoint):
    """The one address space a :class:`ShmTransport` hosts."""

    # Bound in this class's own dict, not just inherited: the
    # benchmark's tracer patches ``vars(cls)["send"]`` per carrier.
    send = ExchangeEndpoint.send


class ShmTransport(ExchangeTransport):
    """Exchanges over an abstract ``AF_UNIX`` stream socket.

    ``peers`` maps site ids to transport names; directory records carry
    the name in their ``host`` field (port 0).  Every keyword option is
    :class:`~repro.transport.exchange.ExchangeTransport`'s.
    """

    endpoint_class = ShmEndpoint

    def __init__(self, site_id: str, **exchange_options) -> None:
        super().__init__(site_id, **exchange_options)
        self.name = NAME_PREFIX + os.urandom(6).hex()

    def add_peer(self, site_id: str, address: Union[str, Tuple]) -> None:
        """Teach this transport which name ``site_id`` listens at.

        Accepts a bare name or a directory-shaped ``(host, port)`` pair
        whose host carries the name.
        """
        if isinstance(address, tuple):
            address = address[0]
        self._peers[site_id] = str(address)

    def _address_of(self, host: str, port: int) -> str:
        return host

    def _bind(self) -> Tuple[socket.socket, str]:
        # Abstract namespace: no file to leak, gone with the process.
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind("\0" + self.name)
            listener.listen()
        except OSError:
            listener.close()
            raise
        return listener, self.name

    def _connect(self, address: str) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(HANDSHAKE_TIMEOUT)
            sock.connect("\0" + address)
        except OSError:
            sock.close()
            raise
        return sock
