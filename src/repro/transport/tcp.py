"""A real inter-process transport: framed exchanges over blocking TCP.

:class:`TcpTransport` carries the same :class:`~repro.simnet.message`
traffic as the simulator, but across genuine OS processes over
localhost (or any) TCP.  One transport hosts exactly one address
space, and the runtimes above stay fully synchronous.

The exchange is :class:`~repro.transport.exchange.ExchangeTransport`,
the link — connections, pool, handshake, serving threads —
:class:`~repro.transport.stream.StreamTransport`; this module says
where a TCP transport listens and how it connects.
"""

from __future__ import annotations

import socket
from typing import Tuple

from repro.transport.base import HANDSHAKE_TIMEOUT
# Lives in base.py; tests import it from here too.
from repro.transport.base import FaultInjector  # noqa: F401
from repro.transport.exchange import ExchangeEndpoint
from repro.transport.stream import Connection, StreamTransport


class TcpEndpoint(ExchangeEndpoint):
    """The one address space a :class:`TcpTransport` hosts."""

    # Bound in this class's own dict, not just inherited: the
    # benchmark's tracer patches ``vars(cls)["send"]`` per carrier.
    send = ExchangeEndpoint.send


class TcpTransport(StreamTransport):
    """The stream link over TCP.  ``peers`` maps site ids to ``(host,
    port)``; every keyword option is
    :class:`~repro.transport.exchange.ExchangeTransport`'s."""

    endpoint_class = TcpEndpoint

    def __init__(
        self, site_id: str, host: str = "127.0.0.1", port: int = 0,
        **exchange_options,
    ) -> None:
        super().__init__(site_id, **exchange_options)
        self._host = host
        self._port = port

    def add_peer(self, site_id: str, address: Tuple[str, int]) -> None:
        """Teach this transport where ``site_id`` listens."""
        self._peers[site_id] = tuple(address)

    def _address_of(self, host: str, port: int) -> Tuple[str, int]:
        return host, port

    def _bind(self) -> Tuple[socket.socket, Tuple[str, int]]:
        v6 = ":" in self._host
        listener = socket.create_server(
            (self._host, self._port),
            family=socket.AF_INET6 if v6 else socket.AF_INET,
        )
        return listener, listener.getsockname()[:2]

    def _connect(self, address: Tuple[str, int]) -> socket.socket:
        return socket.create_connection(address, HANDSHAKE_TIMEOUT)

    def _adopt(self, sock: socket.socket) -> Connection:
        # A duplicated request or a GOODBYE behind a reply is
        # write-write-read: Nagle plus delayed ACK stalls that 40 ms.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return Connection(sock)
