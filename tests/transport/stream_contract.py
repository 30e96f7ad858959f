"""The link's threading model, checked on each real carrier by one
body: who blocks where, and what is left.

``exchange()`` runs on the caller's own thread over a blocking socket;
a listening transport serves every accepted connection on a thread of
its own, handlers inline.  What that has to keep true: a pooled
connection whose peer went away is noticed without a lost
transmission, late duplicates never reach the wrong exchange,
concurrent callers keep at-most-once, a slow handler still runs once,
a hostile peer damages only its own connection, a peer that dies fails
whoever is blocked on it at once, and ``close()`` gives every thread
and descriptor back — also to a caller blocked mid-call.
``test_tcp_link.py`` and ``test_shm_link.py`` ``import *`` this
module and supply the ``carrier`` fixture, as ``test_tcp.py`` and
``test_shm.py`` do with ``exchange_contract.py``.
"""

import ast
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro.transport.exchange as exchange
from repro.simnet.message import MessageKind
from repro.transport.base import FaultInjector, RetryPolicy, TransportError
from repro.transport.framing import (
    LENGTH_PREFIX,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Hello,
    Request,
    Welcome,
    encode_frame,
    split_buffer,
)
from repro.transport.shm import purge_stale_segments
from tests.transport.exchange_contract import _call as _echo
from tests.transport.exchange_contract import (
    _echo_server,
    hammer,
    opened_stacks,
)

#: No timeout fires unless a test wants one to.
PATIENT = RetryPolicy(
    timeout=5.0, backoff=2.0, max_timeout=5.0, max_attempts=3
)

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
)


@pytest.fixture
def stacks(carrier):
    """Factory for started transports, all closed at teardown."""
    yield from opened_stacks(carrier, [], retry=PATIENT)


def _client(stacks, site_id="A", **kwargs):
    return stacks(site_id, listen=False, **kwargs)


def test_restarted_peer_costs_a_dial_not_a_retransmission(stacks):
    """The pooled connection to a peer that went away while it sat idle
    is found dead when it is next taken — nothing was transmitted on
    it, so nothing is *re*transmitted."""
    first = _echo_server(stacks)
    client = _client(stacks)
    assert _echo(client, b"one") == b"echo:one"
    first.close()
    _echo_server(stacks)  # somewhere else: the client is told where
    assert _echo(client, b"two") == b"echo:two"
    assert client.retransmissions == 0
    assert client.dials == {"B": 2}


def test_late_duplicate_reply_does_not_poison_the_pool(stacks):
    """A duplicated request earns two replies; the second arrives after
    its exchange completed and must not answer the next one."""
    runs = []
    server = _echo_server(stacks, runs=runs)
    client = _client(stacks, faults=FaultInjector(duplicate_requests={1}))
    bodies = [str(index).encode() for index in range(6)]
    assert [_echo(client, body) for body in bodies] == [
        b"echo:" + body for body in bodies
    ]
    assert client.dials == {"B": 1}
    assert client.retransmissions == 0
    assert runs == bodies


def test_concurrent_callers_keep_at_most_once(stacks):
    """Eight callers share one client transport while every seventh
    request is sent twice."""
    callers, each = 8, 200
    runs = []
    server = _echo_server(stacks, runs=runs)
    duplicated = set(range(7, callers * each + 1, 7))
    client = _client(
        stacks, faults=FaultInjector(duplicate_requests=duplicated)
    )

    def turn(worker, index):
        body = f"{worker}:{index}".encode()
        assert _echo(client, body) == b"echo:" + body

    hammer(callers, each, turn, switch_interval=1e-4)
    assert len(runs) == len(set(runs)) == callers * each
    assert client.retransmissions == 0
    # Requests (each duplicate counted) plus one reply per exchange.
    assert client.stats.total_messages == (
        2 * callers * each + len(duplicated)
    )


def test_slow_handler_runs_once_across_a_retransmission(stacks):
    """The handler outlives the first attempt's timeout: the
    retransmission arrives on a second connection, waits on the run in
    flight and is answered by it."""
    runs = []
    server = stacks("B")

    def slow(message):
        runs.append(bytes(message.payload))
        time.sleep(0.3)
        return str(len(runs)).encode()

    server.endpoint.register_handler(MessageKind.CALL, slow)
    client = _client(
        stacks,
        retry=RetryPolicy(
            timeout=0.15, backoff=4.0, max_timeout=2.0, max_attempts=3
        ),
    )
    assert _echo(client, b"once") == b"1"
    assert runs == [b"once"]
    assert client.retransmissions == 1
    assert client.dials == {"B": 2}


def _raw(server):
    """A bare socket connected where ``server`` listens."""
    if isinstance(server.address, tuple):
        return socket.create_connection(server.address, 2.0)
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.settimeout(2.0)
    raw.connect("\0" + server.address)
    return raw


def _closed_by_peer(raw):
    """Whether the peer closes ``raw`` (EOF or reset) within its
    timeout, whatever it sends first."""
    try:
        while raw.recv(4096):
            pass
    except socket.timeout:
        return False
    except OSError:
        pass
    return True


def _handshake(raw, site_id="X"):
    raw.sendall(encode_frame(Hello(PROTOCOL_VERSION, site_id)))
    buffer = b""
    frame = None
    while frame is None:
        buffer += raw.recv(4096)
        frame, buffer = split_buffer(buffer)
    assert isinstance(frame, Welcome)
    return buffer


def test_hostile_peer_is_local_damage(stacks, monkeypatch):
    """Silence, a garbage length prefix, a truncated frame and a site
    id that is not UTF-8 each cost the offender its own connection — no
    serving thread dies of an uncaught exception — and a well-behaved
    client on the same server never notices."""
    monkeypatch.setattr(exchange, "HANDSHAKE_TIMEOUT", 0.2)
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    server = _echo_server(stacks)
    client = _client(stacks)
    assert _echo(client, b"before") == b"echo:before"

    with _raw(server) as silent:
        started = time.monotonic()
        assert _closed_by_peer(silent)
        assert time.monotonic() - started < 1.5
    assert _echo(client, b"after-silence") == b"echo:after-silence"

    with _raw(server) as oversized:
        oversized.sendall(LENGTH_PREFIX.pack(MAX_FRAME_BYTES + 1))
        assert _closed_by_peer(oversized)
    assert _echo(client, b"after-garbage") == b"echo:after-garbage"

    with _raw(server) as truncated:
        _handshake(truncated)
        truncated.sendall(LENGTH_PREFIX.pack(100) + b"short body")
        truncated.shutdown(socket.SHUT_WR)
        assert _closed_by_peer(truncated)
    assert _echo(client, b"after-truncation") == b"echo:after-truncation"

    # Well-formed frames whose site id is the byte 0xff: not UTF-8.
    hello = encode_frame(Hello(PROTOCOL_VERSION, "X")).replace(b"X", b"\xff")
    request = encode_frame(
        Request(1, "X", "B", MessageKind.CALL.value, True, b"hi")
    ).replace(b"X", b"\xff")
    with _raw(server) as bad_hello:
        bad_hello.sendall(hello)
        assert _closed_by_peer(bad_hello)
    assert _echo(client, b"after-bad-hello") == b"echo:after-bad-hello"
    with _raw(server) as bad_request:
        _handshake(bad_request)
        bad_request.sendall(request)
        assert _closed_by_peer(bad_request)
    assert _echo(client, b"after-bad-request") == b"echo:after-bad-request"
    assert not uncaught
    assert client.dials == {"B": 1}
    assert client.retransmissions == 0


def test_ping_gives_its_connection_up_on_any_error(stacks, monkeypatch):
    """``ping()`` took a pooled connection for itself; whatever goes
    wrong while it holds it, the connection is closed — not left out of
    the pool and open until the transport closes."""
    server = _echo_server(stacks)
    client = _client(stacks)
    assert client.ping("B") > 0.0
    assert len(client._conns) == 1

    def surprise(conn, ident, deadline):
        raise RuntimeError("not an OSError, not a FramingError")

    with monkeypatch.context() as patched:
        patched.setattr(client, "_await", surprise)
        with pytest.raises(RuntimeError):
            client.ping("B")
    assert not client._conns
    assert client.ping("B") > 0.0
    assert client.dials == {"B": 2}


_DYING_PEER = """
import os, sys
from repro.simnet.message import MessageKind
from repro.transport import {carrier}
peer = {carrier}("B")
peer.endpoint.register_handler(MessageKind.CALL, lambda m: os._exit(3))
print(repr(peer.start()), flush=True)
sys.stdin.read()
"""


def test_killed_peer_fails_the_blocked_caller_at_once(stacks, carrier):
    """A peer process that dies mid-exchange (``os._exit``: no close(),
    no GOODBYE) is EOF on the stream: the caller, with seconds of its
    attempt's timeout left, has its typed error within half a second."""
    with subprocess.Popen(
        [sys.executable, "-c", _DYING_PEER.format(carrier=carrier.__name__)],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    ) as peer:
        try:
            client = _client(
                stacks, retry=RetryPolicy(timeout=5.0, max_attempts=1)
            )
            client.add_peer("B", ast.literal_eval(peer.stdout.readline()))
            assert client.ping("B") > 0.0
            started = time.monotonic()
            with pytest.raises(TransportError, match="connection lost|reset"):
                _echo(client)
            assert time.monotonic() - started < 0.5
            assert peer.wait(5) == 3
        finally:
            peer.kill()
            purge_stale_segments()  # the dead peer never unlinked its own


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _back_to_floor(threads_before, fds_before, within=1.0):
    """Poll until no thread and no descriptor is left over."""
    deadline = time.monotonic() + within
    while True:
        threads = set(threading.enumerate()) - threads_before
        fds = _open_fds()
        if not threads and fds <= fds_before:
            return True
        if time.monotonic() > deadline:
            pytest.fail(
                f"left behind: threads {sorted(t.name for t in threads)}, "
                f"{fds - fds_before} descriptor(s)"
            )
        time.sleep(0.01)


@pytest.fixture
def floor(carrier):
    """The threads and descriptors open before a test's transports.

    The first shared-memory use starts the resource tracker, which
    keeps a pipe for the life of the process: get that out of the way.
    """
    warm = carrier("warm")
    warm.start()
    warm.close()
    return set(threading.enumerate()), _open_fds()


def test_close_leaves_no_thread_and_no_descriptor(carrier, floor):
    never_started = carrier("N")
    never_started.close()
    server = carrier("B", retry=PATIENT)
    client = carrier("A", retry=PATIENT)
    for transport in (server, client):
        transport.start()
    client.add_peer("B", server.address)
    server.add_peer("A", client.address)
    server.endpoint.register_handler(
        MessageKind.CALL, lambda m: b"echo:" + bytes(m.payload)
    )
    assert _echo(client) == b"echo:hi"
    assert client.ping("B") > 0.0
    assert _open_fds() > floor[1]
    client.close()
    server.close()
    client.close()  # a second close is a no-op
    assert _back_to_floor(*floor)
    with pytest.raises(TransportError):
        _echo(client)


def test_close_fails_a_caller_blocked_in_exchange(carrier, floor):
    """``close()`` while another thread waits for a reply: that caller
    gets a TransportError at once — not after the retry schedule, and
    not never — and nothing is left behind once the parked handler is
    let go."""
    attempt = 1.0
    server = carrier("B")
    client = carrier(
        "A",
        listen=False,
        retry=RetryPolicy(timeout=attempt, max_timeout=attempt),
    )
    entered, release = threading.Event(), threading.Event()

    def parked(message):
        entered.set()
        release.wait(10)
        return b"late"

    server.endpoint.register_handler(MessageKind.CALL, parked)
    outcome = []

    def caller():
        try:
            outcome.append(_echo(client))
        except Exception as exc:  # noqa: BLE001 - the test inspects it
            outcome.append(exc)

    thread = threading.Thread(target=caller, daemon=True)
    try:
        server.start()
        client.start()
        client.add_peer("B", server.address)
        thread.start()
        assert entered.wait(5)
        started = time.monotonic()
        client.close()
        thread.join(attempt + 1.0)
        assert not thread.is_alive()
        assert time.monotonic() - started < attempt
        assert len(outcome) == 1
        assert isinstance(outcome[0], TransportError)
    finally:
        client.close()
        server.close()
        release.set()
    assert _back_to_floor(*floor)
