"""ShmTransport: the exchange contract, run over an abstract ``AF_UNIX``
link.

What an exchange does is stated once, in ``exchange_contract.py``, and
imported here to run on this carrier (the link's threading model is in
``test_shm_link.py``).  The rest is what a long-lived listener on this
carrier must keep true.

All tests run several transports inside one interpreter (separate
processes: ``test_cross_process.py`` and the crash matrix).
"""

import time

import pytest

from repro.transport.shm import ShmTransport
from tests.transport.exchange_contract import *  # noqa: F401,F403
from tests.transport.exchange_contract import _call, _echo_server


@pytest.fixture
def carrier():
    return ShmTransport


# -- the listener -------------------------------------------------------------


def test_seen_connection_names_do_not_accumulate(stacks):
    """A long-lived listener remembers a connection only while it
    lasts: dial and close N of them and its connection set — and with
    it the serving threads — is back to empty."""
    server = _echo_server(stacks)
    for index in range(12):
        client = stacks(f"C{index}", listen=False)
        assert _call(client, b"x") == b"echo:x"
        assert len(server._conns) == 1
        client.close()
        deadline = time.monotonic() + 1.0
        while server._conns and time.monotonic() < deadline:
            time.sleep(0.01)  # its serving thread is reading the GOODBYE
        assert server._conns == set()
