"""The link's threading model, run over an abstract ``AF_UNIX`` socket.

What the link has to keep true is stated once, in
``stream_contract.py``, and imported here to run on this carrier; what
is the shm carrier's own is where it listens: one ``@srpc-`` socket in
the abstract namespace, gone with ``close()``.
"""

import pytest

from repro.transport.shm import ShmTransport
from tests.transport.exchange_contract import _srpc_listeners
from tests.transport.stream_contract import *  # noqa: F401,F403
from tests.transport.stream_contract import _open_fds


@pytest.fixture
def carrier():
    return ShmTransport


def test_close_returns_the_bell_sockets(floor):
    """The listening socket — all a transport puts in the abstract
    namespace under its name — goes with ``close()``."""
    before = _open_fds()
    transport = ShmTransport("solo")
    transport.start()
    assert _open_fds() > before
    assert _srpc_listeners() >= {transport.name}
    transport.close()
    assert _open_fds() == before
    assert transport.name not in _srpc_listeners()
    ShmTransport("never").close()
    assert _open_fds() == before
