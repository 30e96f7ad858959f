"""TcpTransport: the exchange contract, run over real localhost sockets.

What an exchange does is stated once, in ``exchange_contract.py``, and
imported here to run on this carrier; what is TCP's own — threads,
descriptors, the pool's idle drain, hostile peers — is in
``test_tcp_threads.py``.
"""

import pytest

from repro.transport.tcp import TcpTransport
from tests.transport.exchange_contract import *  # noqa: F401,F403
from tests.transport.exchange_contract import opened_stacks


@pytest.fixture
def carrier():
    return TcpTransport


@pytest.fixture
def stacks():
    """Factory for started transports, all closed at teardown."""
    yield from opened_stacks(TcpTransport, [])
