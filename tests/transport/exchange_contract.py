"""The exchange contract, checked on each real carrier by one body.

``repro.transport.exchange`` is one exchange and one link under both
carriers, so the behaviour of an exchange is stated here once.  ``test_tcp.py`` and
``test_shm.py`` each ``import *`` this module and supply the ``carrier``
fixture (the transport class), so every test below runs, under its own
name, once per carrier.

All tests run several transports inside one interpreter over real
sockets: each transport still has its own service
threads, and callers run their exchanges on their own threads, exactly
as separate processes would.
"""

import re
import select
import socket
import sys
import threading
import time

import pytest

from repro.simnet.message import MessageKind
from repro.simnet.stats import StatsCollector
from repro.transport.base import (
    FaultInjector,
    HandshakeError,
    RemoteHandlerError,
    RetryPolicy,
    TransportError,
)
from repro.transport.exchange import Connection, ExchangeTransport
from repro.transport.framing import (
    LENGTH_PREFIX,
    PROTOCOL_VERSION,
    Goodbye,
    Hello,
    Ping,
    Pong,
    Request,
    Welcome,
    decode_frame,
    encode_frame,
)
from repro.transport.shm import NAME_PREFIX, ShmTransport
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


def _raw(server):
    """A bare socket connected where ``server`` listens."""
    if isinstance(server.address, tuple):
        return socket.create_connection(server.address, 2.0)
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.settimeout(2.0)
    raw.connect("\0" + server.address)
    return raw


def split_buffer(buffer):
    """Parse one frame off the front of ``buffer`` if complete.

    Returns ``(frame, rest)``; ``frame`` is ``None`` while the buffer
    holds less than one whole frame.  The carriers read frames straight
    off their sockets; a test reading a raw socket buffers with this.
    """
    if len(buffer) < LENGTH_PREFIX.size:
        return None, buffer
    (length,) = LENGTH_PREFIX.unpack_from(buffer)
    end = LENGTH_PREFIX.size + length
    if len(buffer) < end:
        return None, buffer
    body = memoryview(buffer)[LENGTH_PREFIX.size : end]
    return decode_frame(body), buffer[end:]


def _handshake(raw, site_id="X"):
    raw.sendall(encode_frame(Hello(PROTOCOL_VERSION, site_id)))
    buffer = b""
    frame = None
    while frame is None:
        buffer += raw.recv(4096)
        frame, buffer = split_buffer(buffer)
    assert isinstance(frame, Welcome)
    return buffer


def _read_frame(raw):
    """The next whole frame off a raw socket (``None`` at EOF)."""
    buffer = b""
    frame = None
    while frame is None:
        chunk = raw.recv(4096)
        if not chunk:
            return None
        buffer += chunk
        frame, buffer = split_buffer(buffer)
    return frame


def _until(condition, within=5.0):
    deadline = time.monotonic() + within
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def _srpc_listeners():
    """The names of the listening ``@srpc-`` sockets in the abstract
    namespace (``/proc/net/unix`` flag ``00010000``: accepting)."""
    with open("/proc/net/unix") as table:
        rows = [line.split() for line in table.readlines()[1:]]
    return {
        row[7][1:] for row in rows
        if len(row) > 7 and row[3] == "00010000"
        and row[7].startswith("@" + NAME_PREFIX)
    }


def test_one_skeleton_under_both_carriers():
    """The fork cannot quietly come back: a carrier says where to
    listen and how to connect, and nothing else — exchanging, awaiting,
    pooling, dialling, accepting and serving are the same function
    objects on either carrier."""
    supplied = {
        "__init__", "add_peer", "_address_of", "_bind", "_connect",
        "endpoint_class",
    }
    for carrier in (TcpTransport, ShmTransport):
        own = {
            name for name in vars(carrier)
            if name == "__init__"
            or not (name.startswith("__") or name == "_abc_impl")
        }
        assert own == supplied, carrier
    for name in (
        "exchange", "ping", "_run_attempts", "_resolve",
        "_await", "_acquire", "_release", "_discard", "_dial",
        "_accept_loop", "_serve", "_serve_request", "_execute",
    ):
        assert getattr(TcpTransport, name) is getattr(ExchangeTransport, name)
        assert getattr(ShmTransport, name) is getattr(ExchangeTransport, name)


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


@pytest.mark.parametrize("ending", ["close", "goodbye"])
def test_pooled_connection_the_peer_ended_is_redialled(stacks, ending):
    """A pooled connection whose peer closed it, or sent GOODBYE on it,
    while it sat idle is found dead when next taken: dialled afresh,
    and nothing counts as a retransmission, as nothing was sent."""
    server = _echo_server(stacks)
    client = stacks("A")
    assert _call(client) == b"echo:hi"
    (served,) = [conn for conn in server._conns if conn.peer == "A"]
    if ending == "goodbye":
        served.send(encode_frame(Goodbye("B", "going away")))
    else:
        served.shutdown()
    (pooled,) = client._pool["B"]
    assert select.select([pooled.sock], [], [], 5.0)[0]
    assert _call(client, b"again") == b"echo:again"
    assert client.dials == {"B": 2}
    assert client.retransmissions == 0


def test_handshake_version_mismatch_refused(stacks):
    """A peer of another protocol version fails at HELLO — a version 2
    peer, which could still send the shared-segment frames, included."""
    _echo_server(stacks)
    for site, version in (("R", 99), ("O", 2)):
        rogue = stacks(site, protocol_version=version)
        with pytest.raises(HandshakeError) as excinfo:
            _call(rogue)
        assert "version" in str(excinfo.value)


def test_a_version_3_peer_fails_the_handshake_either_way(stacks):
    """A version 3 peer still names both sites in a REQUEST and its kind
    by a string: it is refused at HELLO as a client, and refuses a
    current client as a server, before any request is misread."""
    assert PROTOCOL_VERSION == 4
    _echo_server(stacks)
    old_client = stacks("T", protocol_version=3)
    with pytest.raises(HandshakeError, match="version 3"):
        _call(old_client)
    old_server = stacks("V", protocol_version=3)
    old_server.endpoint.register_handler(
        MessageKind.CALL, lambda message: b"never"
    )
    client = stacks("A")
    with pytest.raises(HandshakeError, match="version 4"):
        client.endpoint.send(
            "V", MessageKind.CALL, b"hi", reply_kind=MessageKind.REPLY
        )
    assert not client.dials and not old_client.dials


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


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
def test_a_dead_run_wakes_every_retransmission_at_the_gate(stacks):
    """The first run's handler raises past the handler-error envelope
    (``SystemExit`` ends its serving thread), so no reply is cached:
    every retransmission waiting at the in-flight gate wakes, sends no
    reply, and the handler ran once."""
    server = stacks("B")
    runs = []
    release = threading.Event()

    def dying(message):
        runs.append(bytes(message.payload))
        assert release.wait(10)
        raise SystemExit

    server.endpoint.register_handler(MessageKind.CALL, dying)
    request = encode_frame(Request(7, MessageKind.CALL.value, True, b"once"))
    first, *copies = raws = [_raw(server) for _ in range(3)]
    try:
        for raw in raws:
            assert _handshake(raw) == b""
        first.sendall(request)
        _until(lambda: runs)
        for raw in copies:  # retransmissions of exchange 7
            raw.sendall(request)
        _until(lambda: server._waiting == len(copies))
        release.set()
        _until(lambda: not server._waiting)
        # Each copy's connection answers a PING next: no REPLY first.
        for token, raw in enumerate(copies):
            raw.sendall(encode_frame(Ping(token)))
            assert _read_frame(raw) == Pong(token)
        assert _read_frame(first) is None  # the dead run's connection
        assert runs == [b"once"]
        assert not server._inflight
    finally:
        for raw in raws:
            raw.close()


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


def test_a_slow_send_does_not_stretch_the_attempt(stacks, monkeypatch):
    """The reply is awaited only until the attempt's deadline: time the
    request took to leave is not granted to the reply again."""
    stalled = threading.Event()
    release = threading.Event()
    server = stacks("B")

    def handler(message):
        if stalled.is_set():
            release.wait(5)
        return b"ok"

    server.endpoint.register_handler(MessageKind.CALL, handler)
    timeout = 0.4
    client = stacks("A", retry=RetryPolicy(timeout=timeout, max_attempts=1))
    assert _call(client) == b"ok"  # dialled and pooled at full speed
    caller = threading.current_thread()
    send = Connection.send

    def slow_send(self, data, deadline=None):
        send(self, data, deadline)
        if threading.current_thread() is caller:
            time.sleep(0.3)  # a sendall that used most of the attempt

    monkeypatch.setattr(Connection, "send", slow_send)
    stalled.set()
    started = time.monotonic()
    try:
        with pytest.raises(TransportError, match="failed after 1 attempts"):
            _call(client)
        assert time.monotonic() - started < timeout + 0.2
    finally:
        release.set()


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


@pytest.mark.parametrize("moment", ["idle", "in flight"])
def test_a_dead_peer_fails_fast(stacks, moment):
    """A peer that ended its connection — it sent GOODBYE on the pooled
    one, or the one in flight hit EOF — and then refuses a new one is
    gone: the exchange ends at once with a ``TransportError`` instead
    of waiting out its retry schedule (a refused connect with no such
    ending still backs off: the test above)."""
    retry = RetryPolicy(timeout=1.0, backoff=2.0, max_attempts=4)
    client = stacks("A", retry=retry)
    server = stacks("B")
    entered = threading.Event()
    release = threading.Event()

    def handler(message):
        if message.payload == b"hang":
            entered.set()
            release.wait(5)
        return b"echo:" + message.payload

    server.endpoint.register_handler(MessageKind.CALL, handler)
    assert _call(client) == b"echo:hi"
    if moment == "idle":
        server.close()
        (pooled,) = client._pool["B"]
        assert select.select([pooled.sock], [], [], 5.0)[0]
    else:

        def close_under_the_call():
            entered.wait(5)
            server.close()
            release.set()

        threading.Thread(target=close_under_the_call, daemon=True).start()
    started = time.monotonic()
    with pytest.raises(TransportError, match="refuses a new one"):
        _call(client, b"hang" if moment == "in flight" else b"again")
    assert time.monotonic() - started < 0.5
    assert client.retransmissions == (moment == "in flight")
    assert client.dials == {"B": 1}


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


def test_a_deep_callback_chain_returns(stacks):
    """Each handler forwards one level down to the other transport and
    blocks in that nested exchange until the chain below returns: 70
    levels keep 35 handlers running on each transport at once, every
    one waiting on its own chain.  Running handlers are bounded only by
    live connections; a bound that counted them would park the next
    level at its gate, and the short retry schedule turns that into a
    failure within seconds instead of a hang."""
    retry = RetryPolicy(timeout=1.0, backoff=1.0, max_attempts=2)
    a = stacks("A", retry=retry)
    b = stacks("B", retry=retry)

    def forward(transport, peer):
        def handler(message):
            depth = int(message.payload)
            if depth == 0:
                return b"0"
            inner = transport.endpoint.send(
                peer,
                MessageKind.CALL,
                b"%d" % (depth - 1),
                reply_kind=MessageKind.REPLY,
            )
            return b"%d" % (int(inner) + 1)

        return handler

    a.endpoint.register_handler(MessageKind.CALL, forward(a, "B"))
    b.endpoint.register_handler(MessageKind.CALL, forward(b, "A"))
    assert _call(a, b"70") == b"70"


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
    listeners = _srpc_listeners()
    assert client.address not in listeners
    for use in (_call, lambda transport: transport.ping("B")):
        started = time.monotonic()
        with pytest.raises(TransportError, match="is closed"):
            use(client)
        assert time.monotonic() - started < 0.05
    assert len(server._conns) <= connections
    assert _srpc_listeners() <= listeners


def test_bulk_counters_charge_logical_bytes(stacks):
    """Stats count the payload the runtime sent and received, not the
    frame around it — counter parity with simnet."""
    stats = StatsCollector()
    _echo_server(stacks, stats=stats)
    client = stacks("A", stats=stats)
    body = b"q" * 100_000
    client.endpoint.send(
        "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY
    )
    assert stats.bytes_by_kind[MessageKind.CALL] == len(body)
    assert stats.bytes_by_kind[MessageKind.REPLY] == len(body) + len(b"echo:")


def test_handler_bound_is_not_an_argument(carrier):
    with pytest.raises(TypeError):
        carrier("A", max_workers=4)
