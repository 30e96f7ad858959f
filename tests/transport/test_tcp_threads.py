"""The link's threading model, run over TCP.

What the link has to keep true is stated once, in
``stream_contract.py``, and imported here to run on this carrier; what
is TCP's own is that importing it does not bring an event loop along.
"""

import os
import subprocess
import sys

import pytest

from repro.transport.tcp import TcpTransport
from tests.transport.stream_contract import *  # noqa: F401,F403
from tests.transport.stream_contract import SRC


@pytest.fixture
def carrier():
    return TcpTransport


def test_importing_the_carrier_does_not_import_asyncio():
    env = dict(os.environ, PYTHONPATH=SRC)
    code = (
        "import sys, repro.transport.tcp; "
        "sys.exit('asyncio' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert done.returncode == 0
