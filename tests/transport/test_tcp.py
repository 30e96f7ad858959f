"""TcpTransport: the exchange contract, run over real localhost sockets.

What an exchange does is stated once, in ``exchange_contract.py``, and
imported here to run on this carrier; the link's threading model —
descriptors, the pool's idle drain, hostile peers — is stated in
``stream_contract.py`` and run on it by ``test_tcp_link.py``.
"""

import pytest

from repro.transport.tcp import TcpTransport
from tests.transport.exchange_contract import *  # noqa: F401,F403


@pytest.fixture
def carrier():
    return TcpTransport
