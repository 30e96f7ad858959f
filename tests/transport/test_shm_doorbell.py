"""The shm carrier's doorbell: a wake-up, never a dependency.

Every started :class:`ShmTransport` sleeps on one datagram socket in
the abstract namespace and is rung after each ring push.  The bell
carries no data and no authority, so the properties worth pinning are
the ones about what happens when it misbehaves: a bell that never
rings only makes things slow (bounded by the heartbeat), a bell rung
by a stranger changes nothing, an idle poller is off the CPU, a dead
peer is still found by the liveness words, and ``close()`` gives the
sockets back.
"""

import os
import socket
import threading
import time

import pytest

from repro.simnet.message import MessageKind
from repro.transport.base import RetryPolicy, TransportError
from repro.transport.shm import (
    HEARTBEAT_INTERVAL,
    SHM_DIR,
    ShmTransport,
    _bell_address,
)

PATIENT = RetryPolicy(
    timeout=5.0, backoff=2.0, max_timeout=5.0, max_attempts=1
)


@pytest.fixture
def pair():
    """A started echo server ``B`` and client ``A``, closed after."""
    opened = []

    def make(**client_kwargs):
        server = ShmTransport("B", retry=PATIENT)
        client = ShmTransport("A", listen=False, **client_kwargs)
        for transport in (server, client):
            transport.start()
            opened.append(transport)
        client.add_peer("B", server.address)
        server.endpoint.register_handler(
            MessageKind.CALL, lambda m: b"echo:" + bytes(m.payload)
        )
        return server, client

    yield make
    for transport in reversed(opened):
        transport.close()
    names = tuple(t.name for t in opened)
    assert [e for e in os.listdir(SHM_DIR) if e.startswith(names)] == []


def _echo(client, body=b"hi"):
    return client.endpoint.send(
        "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY
    )


class _MuteBell:
    """Stands in for a transport's ringing socket: every ring is lost."""

    def __init__(self, real):
        self._real = real
        self.attempts = 0

    def sendto(self, *_args):
        self.attempts += 1
        raise OSError("doorbell lost")

    def close(self):
        self._real.close()


def test_lost_bell_is_only_slow_never_stuck(pair):
    """With every ring of the client lost — the dial's scan request and
    each request's wake-up — the server still finds the frames at its
    next heartbeat: slow, but complete, and nothing is retransmitted."""
    server, client = pair(
        retry=RetryPolicy(timeout=1.0, max_attempts=2)
    )
    client._ringer = mute = _MuteBell(client._ringer)
    worst = 0.0
    for index in range(20):
        started = time.monotonic()
        assert _echo(client, b"%d" % index) == b"echo:%d" % index
        worst = max(worst, time.monotonic() - started)
    assert mute.attempts >= 20  # the client did try to ring
    assert worst < 4 * HEARTBEAT_INTERVAL
    assert client.retransmissions == 0
    assert client.dials["B"] == 1


def test_strangers_datagrams_are_harmless(pair):
    """Junk on the bell costs an empty lap: no exception in the poller,
    no connection dropped, echoes unchanged."""
    server, client = pair(retry=PATIENT)
    assert _echo(client) == b"echo:hi"
    stranger = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
    stranger.setblocking(False)
    try:
        for target in (server, client):
            address = _bell_address(target.name)
            for junk in (b"", b"\xff", b"s", b"f", bytes(range(64))):
                stranger.sendto(junk, address)
            # Flood past the queue limit: the kernel refuses the rest.
            refused = 0
            for _ in range(2000):
                try:
                    stranger.sendto(b"\x00", address)
                except BlockingIOError:
                    refused += 1
            assert refused > 0
            for index in range(5):
                assert _echo(client, b"%d" % index) == b"echo:%d" % index
    finally:
        stranger.close()
    time.sleep(2 * HEARTBEAT_INTERVAL)
    assert _echo(client) == b"echo:hi"
    assert server._poller.is_alive() and client._poller.is_alive()
    assert client.dials["B"] == 1
    assert len(server._live) == 1 and len(client._live) == 1
    assert client.retransmissions == 0


def test_idle_is_idle(pair):
    """Two started, connected transports with nothing to say stay off
    the CPU: only the heartbeat laps run (the polling loop this
    replaced burned ~15 % of a CPU doing nothing)."""
    server, client = pair(retry=PATIENT)
    assert _echo(client) == b"echo:hi"
    time.sleep(2 * HEARTBEAT_INTERVAL)
    cpu = time.process_time()
    started = time.monotonic()
    time.sleep(1.0)
    share = (time.process_time() - cpu) / (time.monotonic() - started)
    assert share < 0.02, f"idle pollers used {share:.1%} of a CPU"


def test_dead_peer_is_still_detected(pair):
    """A bell that will never ring again falls back to the liveness
    words: the caller, blocked in an exchange whose own timeout is
    seconds away, gets its typed error once the peer's heartbeat has
    been silent for ``peer_timeout``."""
    peer_timeout = 0.3
    server, client = pair(retry=PATIENT, peer_timeout=peer_timeout)
    release = threading.Event()
    server.endpoint.register_handler(
        MessageKind.CALL, lambda m: release.wait(10) and b""
    )
    killed = []

    def kill_poller():
        time.sleep(0.1)  # the caller is inside waiter.wait by now
        server._stop.set()
        server._poller.join(1.0)
        killed.append(time.monotonic())

    killer = threading.Thread(target=kill_poller)
    killer.start()
    try:
        with pytest.raises(TransportError) as excinfo:
            _echo(client)
        failed = time.monotonic()
    finally:
        release.set()
        killer.join(5.0)
    assert not server._poller.is_alive()
    assert "gone" in str(excinfo.value)
    # One beat for the client to observe the last heartbeat, the
    # timeout itself, one beat to notice it expired; the rest is slack
    # for a loaded host.
    assert failed - killed[0] < peer_timeout + 2 * HEARTBEAT_INTERVAL + 0.25


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def test_close_returns_the_bell_sockets():
    # The first shared-memory use starts the resource tracker, which
    # keeps a pipe for the life of the process: get that out of the way.
    warm = ShmTransport("warm")
    warm.start()
    warm.close()

    before = _open_fds()
    transport = ShmTransport("solo")
    transport.start()
    assert _open_fds() > before
    with open("/proc/net/unix") as table:
        assert "@" + transport.name in table.read()
    transport.close()
    assert _open_fds() == before
    with open("/proc/net/unix") as table:
        assert "@" + transport.name not in table.read()

    unstarted = ShmTransport("never")
    unstarted.close()
    assert _open_fds() == before


def test_full_ring_is_woken_by_its_consumer(pair):
    """Writers that find a two-slot ring full sleep until the consumer
    rings ``_BELL_SPACE`` after freeing a slot — not for a heartbeat
    per collision, which is what a lost bell would cost them."""
    server, client = pair(retry=PATIENT, ring_slots=2)
    server._ring_slots = 2  # both ends must agree on the geometry
    assert _echo(client) == b"echo:hi"
    conn = client._by_peer["B"]
    waits = []
    wait = conn.space.wait

    def timed_wait(timeout):
        started = time.monotonic()
        wait(timeout)
        waits.append(time.monotonic() - started)

    conn.space.wait = timed_wait
    failures = []

    def hammer(worker):
        try:
            for index in range(25):
                body = b"%d:%d" % (worker, index)
                assert _echo(client, body) == b"echo:" + body
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(n,)) for n in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30.0)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert waits, "the ring never filled: the test has no teeth"
    # Unwoken, every one of these sleeps a whole HEARTBEAT_INTERVAL.
    assert sorted(waits)[len(waits) // 2] < HEARTBEAT_INTERVAL / 5
    assert client.retransmissions == 0
