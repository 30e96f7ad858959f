"""The exchange contract, checked on each real carrier by one body.

``repro.transport.exchange`` is one exchange and one link under both
carriers, so the behaviour of an exchange is stated here once.  ``test_tcp.py`` and
``test_shm.py`` each ``import *`` this module and supply the ``carrier``
fixture (the transport class), so every test below runs, under its own
name, once per carrier.

All tests run several transports inside one interpreter over real
sockets / real shared memory: each transport still has its own service
threads, and callers run their exchanges on their own threads, exactly
as separate processes would.
"""

import glob
import os
import re
import sys
import threading
import time

import pytest

from repro.simnet.message import MessageKind
from repro.transport.base import (
    FaultInjector,
    HandshakeError,
    RemoteHandlerError,
    RetryPolicy,
    TransportError,
)
from repro.transport.exchange import Connection
from repro.transport.shm import (
    NAME_PREFIX,
    SHM_DIR,
    ShmTransport,
    _AckedConnection,
)
from repro.transport.tcp import TcpTransport

FAST_RETRY = RetryPolicy(
    timeout=0.2, backoff=2.0, max_timeout=1.0, max_attempts=4
)


def opened_stacks(carrier, opened, retry=FAST_RETRY):
    """The body of a ``stacks`` fixture: a factory for started,
    mutually introduced transports of class ``carrier``, collected in
    ``opened`` and all closed at teardown."""

    def make(site_id, **kwargs):
        kwargs.setdefault("retry", retry)
        transport = carrier(site_id, **kwargs)
        transport.start()
        opened.append(transport)
        for other in opened:
            if other is not transport:
                if transport.address is not None:
                    other.add_peer(site_id, transport.address)
                if other.address is not None:
                    transport.add_peer(other.site_id, other.address)
        return transport

    yield make
    for transport in reversed(opened):
        transport.close()


@pytest.fixture
def stacks(carrier):
    """Factory for started transports, all closed at teardown."""
    yield from opened_stacks(carrier, [])


def _echo_server(stacks, site_id="B", runs=None, **kwargs):
    """Server ``site_id`` answering ``echo:<payload>``; ``runs``
    collects the payload of every handler run."""
    server = stacks(site_id, **kwargs)

    def handler(message):
        if runs is not None:
            runs.append(bytes(message.payload))
        return b"echo:" + message.payload

    server.endpoint.register_handler(MessageKind.CALL, handler)
    return server


def _call(client, body=b"hi", **kwargs):
    return client.endpoint.send(
        "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY, **kwargs
    )


def hammer(callers, each, turn, switch_interval=1e-5):
    """``turn(worker, index)`` ``each`` times on each of ``callers``
    threads at once — more threads than cores and a short switch
    interval, so an unguarded counter or table would lose an update."""
    failures = []

    def run(worker):
        try:
            for index in range(each):
                turn(worker, index)
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    threads = [
        threading.Thread(target=run, args=(worker,), daemon=True)
        for worker in range(callers)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(switch_interval)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures


def _counting_server(stacks, **kwargs):
    """A deliberately non-idempotent handler: replies its call count."""
    server = stacks("B", **kwargs)
    calls = []
    server.endpoint.register_handler(
        MessageKind.CALL,
        lambda m: calls.append(m.payload) or str(len(calls)).encode(),
    )
    return server, calls


def test_one_skeleton_under_both_carriers():
    """The fork cannot quietly come back: exchanging, awaiting, pooling,
    dialling, accepting and serving are the same function objects on
    either carrier, and there is one frame reader whatever a carrier
    wraps a socket in."""
    for name in (
        "exchange", "ping", "_run_attempts", "_finish", "_resolve",
        "_await", "_acquire", "_release", "_discard", "_dial",
        "_accept_loop", "_serve", "_serve_request", "_execute",
    ):
        assert getattr(TcpTransport, name) is getattr(ShmTransport, name)
    assert _AckedConnection.read_frame is Connection.read_frame
    assert _AckedConnection.idle_alive is Connection.idle_alive


def test_basic_exchange(stacks):
    _echo_server(stacks)
    assert _call(stacks("A")) == b"echo:hi"


def test_one_way_message(stacks):
    server = stacks("B")
    seen = []
    server.endpoint.register_handler(
        MessageKind.INVALIDATE, lambda m: seen.append(m.payload) or b""
    )
    client = stacks("A")
    assert client.endpoint.send("B", MessageKind.INVALIDATE, b"x") == b""
    assert seen == [b"x"]


def test_connection_pool_reuses_one_dial(stacks):
    _echo_server(stacks)
    client = stacks("A")
    for index in range(10):
        _call(client, str(index).encode())
    assert client.dials["B"] == 1


def test_handshake_version_mismatch_refused(stacks):
    _echo_server(stacks)
    rogue = stacks("R", protocol_version=99)
    with pytest.raises(HandshakeError) as excinfo:
        _call(rogue)
    assert "version" in str(excinfo.value)


def test_dropped_request_is_retransmitted(stacks):
    _echo_server(stacks)
    client = stacks("A", faults=FaultInjector(drop_requests={1}))
    assert _call(client) == b"echo:hi"
    assert client.retransmissions == 1


def test_failed_attempt_connection_fate(stacks):
    """The connection a failed attempt used is closed, not pooled: a
    stream may hold half a frame."""
    _echo_server(stacks)
    client = stacks("A", faults=FaultInjector(drop_requests={2}))
    assert _call(client) == b"echo:hi"
    assert client.dials == {"B": 1}
    assert _call(client) == b"echo:hi"  # first attempt lost
    assert client.retransmissions == 1
    assert client.dials == {"B": 2}


def test_duplicated_request_executes_once(stacks):
    _server, calls = _counting_server(stacks)
    client = stacks("A", faults=FaultInjector(duplicate_requests={1}))
    assert _call(client) == b"1"
    # Both copies of the frame reached the server; the handler must
    # still have run exactly once.
    assert calls == [b"hi"]


def test_dropped_reply_served_from_cache(stacks):
    server, calls = _counting_server(
        stacks, faults=FaultInjector(drop_replies={1})
    )
    client = stacks("A")
    # The first reply was dropped on the wire; the retransmission must
    # be answered from the server's reply cache, not by re-execution.
    assert _call(client) == b"1"
    assert calls == [b"hi"]
    assert client.retransmissions >= 1
    assert server.endpoint.reply_cache.retransmission_hits >= 1


def test_next_request_retires_the_previous_reply(stacks):
    """A client sends on a connection only once it has read the reply
    to its previous request there, so the next request acknowledges
    that reply and it leaves the cache: eight 1 MB fetches over one
    pooled connection leave one reply cached, not eight."""
    bulk = b"m" * (1 << 20)
    server = stacks("B")
    server.endpoint.register_handler(MessageKind.CALL, lambda m: bulk)
    client = stacks("A")
    for _ in range(8):
        assert bytes(_call(client)) == bulk
    assert client.dials == {"B": 1}
    assert len(server.endpoint.reply_cache) == 1


def test_retransmission_waits_for_the_running_handler(stacks):
    """A retransmission that arrives while the first transmission's
    handler is still running waits at the in-flight gate: the handler
    runs once, and the one reply answers both transmissions."""
    server = stacks("B")
    calls = []
    release = threading.Event()

    def slow(message):
        calls.append(message.payload)
        assert release.wait(10)
        return str(len(calls)).encode()

    server.endpoint.register_handler(MessageKind.CALL, slow)
    client = stacks("A")
    replies = []
    caller = threading.Thread(target=lambda: replies.append(_call(client)))
    caller.start()
    deadline = time.monotonic() + 5
    while not client.retransmissions and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.05)  # the retransmission reaches the gate
    release.set()
    caller.join(10)
    assert not caller.is_alive()
    assert replies == [b"1"]
    assert calls == [b"hi"]
    assert client.retransmissions >= 1
    assert server.endpoint.reply_cache.retransmission_hits >= 1


def test_retry_exhaustion_raises(stacks):
    _echo_server(stacks)
    client = stacks(
        "A",
        faults=FaultInjector(drop_requests={1, 2}),
        retry=RetryPolicy(timeout=0.1, max_attempts=2),
    )
    with pytest.raises(TransportError, match="failed after 2 attempts"):
        _call(client)


def test_whole_exchange_cap(stacks):
    _echo_server(stacks)
    client = stacks("A", faults=FaultInjector(drop_requests=range(1, 9)))
    started = time.monotonic()
    with pytest.raises(TransportError) as excinfo:
        _call(client, timeout=0.3)
    assert time.monotonic() - started < 0.3 + 0.25
    assert re.search(
        r"call exchange 'A'->'B' exceeded its 0\.3s cap after "
        r"2 attempt\(s\) \(.+\)",
        str(excinfo.value),
    )


def test_connect_failure_backs_off_per_carrier(stacks):
    """A refused dial returns at once on either carrier, so each waits
    the attempt's timeout out.  Nothing was sent, so nothing counts as
    a retransmission."""
    retry = RetryPolicy(timeout=0.1, backoff=2.0, max_attempts=3)
    # A listens before B closes, so the port B frees can never be A's.
    client = stacks("A", retry=retry)
    gone = stacks("B")
    gone.close()  # its address now refuses
    expected = sum(retry.timeouts())
    started = time.monotonic()
    with pytest.raises(TransportError, match="failed after 3 attempts"):
        _call(client)
    elapsed = time.monotonic() - started
    assert expected <= elapsed < expected + 0.4
    assert client.retransmissions == 0
    assert client.dials == {}


def test_unknown_destination_raises(stacks):
    client = stacks("A")
    with pytest.raises(TransportError):
        client.endpoint.send(
            "nowhere", MessageKind.CALL, b"", reply_kind=MessageKind.REPLY
        )


def test_remote_handler_exception_propagates(stacks):
    server = stacks("B")

    def explode(message):
        raise RuntimeError("kaboom")

    server.endpoint.register_handler(MessageKind.CALL, explode)
    with pytest.raises(RemoteHandlerError) as excinfo:
        _call(stacks("A"))
    assert "kaboom" in str(excinfo.value)


def test_nested_exchange_back_to_blocked_caller(stacks):
    """B's handler calls back into A while A is blocked on B — the
    shape of every fault-driven data request.  Needs A to serve while
    its own call is outstanding; a deadlock here fails by timeout."""
    a = stacks("A")
    b = stacks("B")
    a.endpoint.register_handler(
        MessageKind.DATA_REQUEST, lambda m: b"data:" + m.payload
    )

    def relay(message):
        inner = b.endpoint.send(
            "A",
            MessageKind.DATA_REQUEST,
            message.payload,
            reply_kind=MessageKind.DATA_REPLY,
        )
        return b"relay:" + inner

    b.endpoint.register_handler(MessageKind.CALL, relay)
    assert _call(a, b"x") == b"relay:data:x"


def test_eight_threads_lose_no_fault_ordinal(stacks):
    """Callers' threads share the fault ordinals and the counters:
    every injected drop costs exactly one retransmission, and every
    logical send runs its handler exactly once."""
    dropped_requests, dropped_replies = {3, 11, 40, 77}, {5, 30, 90}
    server, calls = _counting_server(
        stacks, faults=FaultInjector(drop_replies=dropped_replies)
    )
    client = stacks(
        "A",
        faults=FaultInjector(drop_requests=dropped_requests),
        retry=RetryPolicy(timeout=0.4, backoff=1.0, max_attempts=6),
    )
    threads, each = 8, 15
    hammer(
        threads, each,
        lambda index, turn: _call(client, b"%d.%d" % (index, turn)),
    )
    assert sorted(calls) == sorted(
        b"%d.%d" % (index, turn)
        for index in range(threads) for turn in range(each)
    )
    injected = len(dropped_requests) + len(dropped_replies)
    assert client.retransmissions == injected
    assert server.endpoint.reply_cache.retransmission_hits == len(
        dropped_replies
    )


def test_ping_measures_round_trip(stacks):
    _echo_server(stacks)
    assert stacks("A").ping("B") > 0.0


def test_send_before_start_raises(carrier):
    transport = carrier("A")
    try:
        with pytest.raises(TransportError, match="not started"):
            transport.exchange("B", MessageKind.CALL, b"", None)
    finally:
        transport.close()


def test_closed_transport_fails_at_once(stacks):
    """After ``close()`` neither an exchange nor a ping dials, waits
    or leaves anything behind: the running check comes first."""
    server = _echo_server(stacks)
    client = stacks("A")
    assert _call(client) == b"echo:hi"
    client.close()
    time.sleep(0.1)  # the server has seen the goodbye
    connections = len(server._conns)
    segments = set(glob.glob(os.path.join(SHM_DIR, NAME_PREFIX + "*")))
    for use in (_call, lambda transport: transport.ping("B")):
        started = time.monotonic()
        with pytest.raises(TransportError, match="is closed"):
            use(client)
        assert time.monotonic() - started < 0.05
    assert len(server._conns) <= connections
    assert set(glob.glob(os.path.join(SHM_DIR, NAME_PREFIX + "*"))) <= segments


def test_handler_bound_is_not_an_argument(carrier):
    with pytest.raises(TypeError):
        carrier("A", max_workers=4)
