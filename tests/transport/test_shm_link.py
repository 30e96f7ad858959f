"""The shm carrier's link: tcp's link over ``AF_UNIX``, and what riding
it means for extents.

The threading model is stated once, in ``stream_contract.py``, and
imported here to run on this carrier.  The rest pins what the link
leaves to ``shm.py`` — a ``SEG_ACK`` is handled wherever it turns up,
a peer that ends its last connection has its pins released and a local
eviction releases none, the spill threshold is one constant — and what
the carrier's earlier rings and doorbell were checked for, which the
link must keep true: idle is idle, a dead peer is noticed, a stranger
is harmless, a blocked writer loses nothing, ``close()`` gives all
back.
"""

import socket
import time

import pytest

from repro.simnet.message import MessageKind
from repro.transport.base import FaultInjector, RetryPolicy, TransportError
from repro.transport.framing import (
    Goodbye,
    Request,
    SegAck,
    SegReply,
    encode_frame,
)
from repro.transport.shm import ShmTransport
from tests.transport.test_shm import no_segment_left_behind  # noqa: F401
from tests.transport.stream_contract import *  # noqa: F401,F403
from tests.transport.stream_contract import (
    _client,
    _closed_by_peer,
    _echo,
    _echo_server,
    _handshake,
    _open_fds,
    _raw,
    hammer,
    split_buffer,
)

#: One attempt: a retransmission would only hide what a test looks for.
ONCE = RetryPolicy(timeout=5.0, max_attempts=1)


@pytest.fixture
def carrier():
    return ShmTransport


@pytest.fixture
def pair(stacks):
    """A started echo server ``B`` and its client ``A``."""

    def make(**client_kwargs):
        server = _echo_server(stacks)
        return server, _client(stacks, retry=ONCE, **client_kwargs)

    return make


def _eventually(condition, within=2.0):
    deadline = time.monotonic() + within
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


def test_ack_ahead_of_the_reply_unpins_its_extent(pair):
    """The serving thread acks the request extent once the handler is
    back, then replies: the caller meets the ack while it waits for
    the reply, and the extent is free when ``send`` returns."""
    server, client = pair()
    server.endpoint.register_handler(MessageKind.CALL, lambda m: b"ok")
    strays, stray = [], client._stray
    client._stray = lambda frame: strays.append(frame) or stray(frame)
    assert _echo(client, b"b" * 100_000) == b"ok"
    assert [type(frame) for frame in strays] == [SegAck]
    assert client._allocator.pinned_bytes() == 0
    assert _echo(client, b"b" * 100_000) == b"ok"
    assert (client.dials, client.retransmissions) == ({"B": 1}, 0)


def _retaining_server(pair):
    """``(server, client, held)``: the handler keeps every lease."""
    server, client = pair()
    held = []
    server.endpoint.register_handler(
        MessageKind.CALL,
        lambda m: m.carrier_ref.retain() or held.append(m) or b"kept",
    )
    return server, client, held


def test_ack_on_an_idle_pooled_connection_unpins_its_extent(pair):
    """A retained lease released later, from another thread, acks on a
    connection nobody is reading: the ack waits for the next taker's
    idle drain, unpins there, and poisons nothing."""
    server, client, held = _retaining_server(pair)
    assert _echo(client, b"k" * 100_000) == b"kept"
    held.pop().carrier_ref.release()
    assert client._allocator.pinned_bytes() > 0  # written, not yet read
    server.endpoint.register_handler(MessageKind.CALL, lambda m: b"next")
    assert _echo(client) == b"next"
    assert client._allocator.pinned_bytes() == 0
    assert (client.dials, client.retransmissions) == ({"B": 1}, 0)


@pytest.mark.parametrize(
    "farewell", [encode_frame(Goodbye("X", "bye")), b""],
    ids=["goodbye", "vanishes"],
)
def test_peer_ending_its_last_connection_releases_its_pins(pair, farewell):
    """A raw peer ``X`` takes a reply too big to go inline and never
    acks it.  One of its two connections ending proves nothing (it may
    be reading the extent still); the last one ending unpins."""
    server, _ = pair()
    raw, spare = _raw(server), _raw(server)
    with raw, spare:
        buffer = _handshake(raw)
        _handshake(spare)
        raw.sendall(encode_frame(
            Request(1, "X", "B", MessageKind.CALL.value, True, b"x" * 4000)
        ))
        frame = None
        while frame is None:
            buffer += raw.recv(4096)
            frame, buffer = split_buffer(buffer)
        assert isinstance(frame, SegReply)
        pinned = server._allocator.pinned_bytes()
        assert pinned > 0 and len(server._conns) == 2
        spare.close()
        assert _eventually(lambda: len(server._conns) == 1)
        assert server._allocator.pinned_bytes() == pinned
        raw.sendall(farewell)
    assert _eventually(lambda: server._allocator.pinned_bytes() == 0)


def test_local_eviction_releases_no_pins(pair):
    """Dropping a connection on this side says nothing about the peer:
    the extent it still holds stays pinned (until ack or TTL)."""
    server, client, held = _retaining_server(pair)
    assert _echo(client, b"k" * 100_000) == b"kept"
    pinned = client._allocator.pinned_bytes()
    assert pinned > 0
    client._discard(client._pool["B"].pop())
    assert _eventually(lambda: not server._conns)
    assert client._allocator.pinned_bytes() == pinned
    assert bytes(held[0].payload) == b"k" * 100_000  # still whole
    held.pop().carrier_ref.release()


def test_spill_threshold_is_3584_bytes(pair):
    server, client = pair()
    server.endpoint.register_handler(MessageKind.CALL, lambda m: b"ok")
    assert client.spill_threshold == 3584
    assert _echo(client, b"i" * 3584) == b"ok"
    assert (client.handovers, server.handovers) == (0, 0)
    assert _echo(client, b"e" * 3585) == b"ok"
    assert (client.handovers, server.handovers) == (0, 1)


def test_strangers_datagrams_are_harmless(pair):
    """A stranger that connects and writes junk costs its own
    connection: no serving thread dies, nobody else's connection is
    dropped, echoes are unchanged."""
    server, client = pair()
    assert _echo(client) == b"echo:hi"
    for junk in (b"\xff" * 64, bytes(range(64)), b"s"):
        with _raw(server) as stranger:
            stranger.sendall(junk)
            stranger.shutdown(socket.SHUT_WR)
            assert _closed_by_peer(stranger)
        assert _echo(client, junk) == b"echo:" + junk
    assert _eventually(lambda: len(server._conns) == 1)
    assert (client.dials, client.retransmissions) == ({"B": 1}, 0)


def test_idle_is_idle(pair):
    """Two started, connected transports with nothing to say stay off
    the CPU: every thread is blocked in ``accept`` or ``recv`` (the
    polling loop of old burned ~15 % of a CPU doing nothing)."""
    _server, client = pair()
    assert _echo(client) == b"echo:hi"
    time.sleep(0.1)
    cpu = time.process_time()
    started = time.monotonic()
    time.sleep(1.0)
    share = (time.process_time() - cpu) / (time.monotonic() - started)
    assert share < 0.02, f"idle transports used {share:.1%} of a CPU"


def test_dead_peer_is_still_detected(pair):
    """A caller blocked in an exchange whose own timeout is seconds
    away gets its typed error as soon as the peer's end goes away."""
    server, client = pair()
    gone = []
    server.endpoint.register_handler(
        MessageKind.CALL,
        lambda m: gone.append(time.monotonic()) or server.close() or b"",
    )
    with pytest.raises(TransportError, match="connection lost"):
        _echo(client)
    assert time.monotonic() - gone[0] < 0.5


def test_close_returns_the_bell_sockets(floor):
    """The listening socket — all that is left in the abstract
    namespace under the transport's name — goes with ``close()``."""

    def listening(name):
        with open("/proc/net/unix") as table:
            return "@" + name in table.read()

    before = _open_fds()
    transport = ShmTransport("solo")
    transport.start()
    assert _open_fds() > before and listening(transport.name)
    transport.close()
    assert _open_fds() == before and not listening(transport.name)
    ShmTransport("never").close()
    assert _open_fds() == before


def test_full_ring_is_woken_by_its_consumer(pair, monkeypatch):
    """Eight threads hammering through writers that block — every
    request is written twice into a send buffer smaller than the two,
    so the second ``sendall`` sleeps until the peer has read the first
    — lose nothing and retransmit nothing."""
    connect = ShmTransport._connect

    def cramped(self, address):
        sock = connect(self, address)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1)  # the floor
        return sock

    monkeypatch.setattr(ShmTransport, "_connect", cramped)
    server, client = pair(
        faults=FaultInjector(duplicate_requests=range(1, 999))
    )
    padding = b"p" * 3500  # inline: under the spill threshold
    assert _echo(client, padding)[5:] == padding
    [conn] = client._conns
    assert conn.sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF) < (
        2 * len(padding)
    ), "the link never fills: the test has no teeth"

    def turn(worker, index):
        body = b"%d:%d:" % (worker, index) + padding
        assert _echo(client, body) == b"echo:" + body

    hammer(8, 25, turn)
    assert client.retransmissions == 0
    assert client.handovers == server.handovers == 0
