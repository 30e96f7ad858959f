"""TcpTransport behaviour: handshake, pooling, retries, at-most-once.

All tests run several transports inside one interpreter over real
localhost sockets — each transport still has its own listener, accept
thread and one serving thread per accepted connection, and callers
run their exchanges on their own threads, exactly as separate
processes would.
"""

import pytest

from repro.simnet.message import MessageKind
from repro.transport.base import RetryPolicy, TransportError
from repro.transport.tcp import (
    FaultInjector,
    HandshakeError,
    RemoteHandlerError,
    TcpTransport,
)

FAST_RETRY = RetryPolicy(
    timeout=0.2, backoff=2.0, max_timeout=1.0, max_attempts=4
)


@pytest.fixture
def stacks():
    """Factory for started transports, all closed at teardown."""
    opened = []

    def make(site_id, **kwargs):
        kwargs.setdefault("retry", FAST_RETRY)
        transport = TcpTransport(site_id, **kwargs)
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
    for transport in opened:
        transport.close()


def _echo_server(stacks, site_id="B", **kwargs):
    server = stacks(site_id, **kwargs)
    server.endpoint.register_handler(
        MessageKind.CALL, lambda m: b"echo:" + m.payload
    )
    return server


def test_basic_exchange(stacks):
    _echo_server(stacks)
    client = stacks("A")
    reply = client.endpoint.send(
        "B", MessageKind.CALL, b"hi", reply_kind=MessageKind.REPLY
    )
    assert reply == b"echo:hi"


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
        client.endpoint.send(
            "B",
            MessageKind.CALL,
            str(index).encode(),
            reply_kind=MessageKind.REPLY,
        )
    assert client.dials["B"] == 1


def test_handshake_version_mismatch_refused(stacks):
    _echo_server(stacks)
    rogue = stacks("R", protocol_version=99)
    with pytest.raises(HandshakeError) as excinfo:
        rogue.endpoint.send(
            "B", MessageKind.CALL, b"hi", reply_kind=MessageKind.REPLY
        )
    assert "version" in str(excinfo.value)


def test_dropped_request_is_retransmitted(stacks):
    _echo_server(stacks)
    client = stacks("A", faults=FaultInjector(drop_requests={1}))
    reply = client.endpoint.send(
        "B", MessageKind.CALL, b"hi", reply_kind=MessageKind.REPLY
    )
    assert reply == b"echo:hi"
    assert client.retransmissions == 1


def test_duplicated_request_executes_once(stacks):
    server = stacks("B")
    calls = []
    server.endpoint.register_handler(
        MessageKind.CALL,
        lambda m: calls.append(m.payload) or str(len(calls)).encode(),
    )
    client = stacks("A", faults=FaultInjector(duplicate_requests={1}))
    reply = client.endpoint.send(
        "B", MessageKind.CALL, b"hi", reply_kind=MessageKind.REPLY
    )
    assert reply == b"1"
    # Both copies of the frame reached the server; the handler (which
    # is deliberately not idempotent) must still have run exactly once.
    assert calls == [b"hi"]


def test_dropped_reply_served_from_cache(stacks):
    server = stacks("B", faults=FaultInjector(drop_replies={1}))
    calls = []
    server.endpoint.register_handler(
        MessageKind.CALL,
        lambda m: calls.append(m.payload) or str(len(calls)).encode(),
    )
    client = stacks("A")
    reply = client.endpoint.send(
        "B", MessageKind.CALL, b"hi", reply_kind=MessageKind.REPLY
    )
    # The first reply was dropped on the wire; the retransmission must
    # be answered from the server's reply cache, not by re-execution.
    assert reply == b"1"
    assert calls == [b"hi"]
    assert client.retransmissions >= 1
    assert server.endpoint.reply_cache.hits >= 1


def test_retry_exhaustion_raises(stacks):
    _echo_server(stacks)
    client = stacks(
        "A",
        faults=FaultInjector(drop_requests={1, 2}),
        retry=RetryPolicy(timeout=0.1, max_attempts=2),
    )
    with pytest.raises(TransportError):
        client.endpoint.send(
            "B", MessageKind.CALL, b"hi", reply_kind=MessageKind.REPLY
        )


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
    client = stacks("A")
    with pytest.raises(RemoteHandlerError) as excinfo:
        client.endpoint.send(
            "B", MessageKind.CALL, b"", reply_kind=MessageKind.REPLY
        )
    assert "kaboom" in str(excinfo.value)


def test_nested_exchange_back_to_blocked_caller(stacks):
    """B's handler calls back into A while A is blocked on B — the
    shape of every fault-driven data request.  Needs the event loop
    free while handlers run; a deadlock here fails by timeout."""
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
    reply = a.endpoint.send(
        "B", MessageKind.CALL, b"x", reply_kind=MessageKind.REPLY
    )
    assert reply == b"relay:data:x"


def test_ping_measures_round_trip(stacks):
    _echo_server(stacks)
    client = stacks("A")
    assert client.ping("B") > 0.0


def test_send_before_start_raises():
    transport = TcpTransport("A")
    try:
        with pytest.raises(TransportError):
            transport.exchange("B", MessageKind.CALL, b"", None)
    finally:
        transport.close()
