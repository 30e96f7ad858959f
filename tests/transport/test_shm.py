"""ShmTransport behaviour: segment extents, leases — and the exchange
contract, run over an ``AF_UNIX`` link and real shared memory.

What an exchange does is stated once, in ``exchange_contract.py``, and
imported here to run on this carrier (the link's threading model and
what it leaves to ``shm.py`` are in ``test_shm_link.py``).  The
rest is what is unique to shared memory: extent handovers for bulk
payloads, the stamp/epoch validation protocol, zero-copy send buffers,
deferred reply acks and stale-segment reaping.

All tests run several transports inside one interpreter over genuinely
shared memory, so the cross-process protocol is exercised in full
(separate processes: ``test_cross_process.py`` and the crash matrix).
"""

import os
import struct
import time

import pytest

from repro.simnet.message import MessageKind
from repro.simnet.stats import StatsCollector
from repro.transport.base import TransportError
from repro.transport.shm import (
    SHM_DIR,
    SegmentAllocator,
    ShmTransport,
    _EXTENT_HEADER,
    purge_stale_segments,
)
from tests.transport.exchange_contract import *  # noqa: F401,F403
from tests.transport.exchange_contract import _call, _echo_server

_U64 = struct.Struct("<Q")


# -- allocator unit tests -----------------------------------------------------


@pytest.fixture
def allocator():
    alloc = SegmentAllocator(
        "srpc-test-" + os.urandom(4).hex(), 64 * 1024
    )
    yield alloc
    alloc.close()


def test_allocator_reserve_publish_release(allocator):
    offset, stamp, view = allocator.reserve(100)
    view[:3] = b"abc"
    allocator.publish(offset)
    # The stamp lands in the extent header, after the payload write.
    assert _U64.unpack_from(allocator.shm.buf, offset)[0] == stamp
    assert allocator.release(offset, stamp)
    assert allocator.pinned_bytes() == 0


def test_allocator_release_is_stamp_guarded(allocator):
    offset, stamp, _view = allocator.reserve(100)
    # A stale ack (wrong stamp) must not free a live extent.
    assert not allocator.release(offset, stamp + 1)
    assert allocator.pinned_bytes() > 0
    assert allocator.release(offset, stamp)


def test_allocator_skips_pinned_extents(allocator):
    offset_a, stamp_a, _ = allocator.reserve(100)
    offset_b, stamp_b, _ = allocator.reserve(100)
    assert offset_a != offset_b
    allocator.release(offset_a, stamp_a)
    offset_c, _stamp_c, _ = allocator.reserve(40 * 1024)
    # The big extent must not overlap the still-pinned b.
    start_c, end_c = offset_c, offset_c + _EXTENT_HEADER + 40 * 1024
    start_b, end_b = offset_b, offset_b + _EXTENT_HEADER + 100
    assert end_c <= start_b or start_c >= end_b
    allocator.release(offset_b, stamp_b)


def test_allocator_exhaustion_raises(allocator):
    pins = [allocator.reserve(8 * 1024) for _ in range(7)]
    with pytest.raises(TransportError) as excinfo:
        allocator.reserve(32 * 1024, timeout=0.2)
    assert "segment-size" in str(excinfo.value)
    for offset, stamp, _ in pins:
        allocator.release(offset, stamp)


def test_allocator_oversize_payload_raises(allocator):
    with pytest.raises(TransportError):
        allocator.reserve(65 * 1024)


def test_allocator_release_peer(allocator):
    allocator.reserve(64, peer="B")
    allocator.reserve(64, peer="B")
    allocator.reserve(64, peer="C")
    assert allocator.release_peer("B") == 2
    assert allocator.release_peer("B") == 0
    assert allocator.release_peer("C") == 1


def test_allocator_epoch_bump(allocator):
    before = allocator.epoch
    allocator.bump_epoch()
    assert allocator.epoch == before + 1
    header_epoch = _U64.unpack_from(allocator.shm.buf, 16)[0]
    assert header_epoch == allocator.epoch


# -- the exchange contract, on this carrier -----------------------------------


@pytest.fixture
def carrier():
    return ShmTransport


@pytest.fixture(autouse=True)
def no_segment_left_behind():
    """Every segment a test created must be gone from /dev/shm."""
    before = set(os.listdir(SHM_DIR))
    yield
    assert set(os.listdir(SHM_DIR)) <= before


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


# -- segment handover (what shm adds) -----------------------------------------


def test_bulk_payload_ships_as_extent(stacks):
    """Payloads above the spill threshold travel as segment offsets:
    the socket carries a fixed-size descriptor, the bytes never move."""
    _echo_server(stacks)
    client = stacks("A")
    body = bytes(range(256)) * 4096  # 1 MiB, way past the threshold
    reply = client.endpoint.send(
        "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY
    )
    assert reply == b"echo:" + body
    # The reply came back as an extent too: the client mapped it in
    # place instead of copying a stream.
    assert client.handovers == 1


def test_bulk_reply_handover_counted_on_server(stacks):
    server = _echo_server(stacks)
    client = stacks("A")
    body = b"z" * (client.spill_threshold + 1)
    reply = client.endpoint.send(
        "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY
    )
    assert reply == b"echo:" + body
    assert server.handovers == 1  # the request extent, mapped by B
    assert client.handovers == 1  # the reply extent, mapped by A


def test_small_payload_stays_inline(stacks):
    server = _echo_server(stacks)
    client = stacks("A")
    client.endpoint.send(
        "B", MessageKind.CALL, b"tiny", reply_kind=MessageKind.REPLY
    )
    assert client.handovers == 0
    assert server.handovers == 0


def test_bulk_counters_charge_logical_bytes(stacks):
    """Stats must count the payload the runtime sent, not the 60-byte
    descriptor the socket carried — counter parity with tcp/simnet."""
    stats = StatsCollector()
    _echo_server(stacks, stats=stats)
    client = stacks("A", stats=stats)
    body = b"q" * 100_000
    client.endpoint.send(
        "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY
    )
    assert stats.bytes_by_kind[MessageKind.CALL] == len(body)
    assert stats.bytes_by_kind[MessageKind.REPLY] == len(body) + len(b"echo:")


def test_reserve_payload_zero_copy_send(stacks):
    """A caller can write straight into the data segment and ship the
    extent without the transport ever copying the body."""
    server = stacks("B")
    server.endpoint.register_handler(
        MessageKind.CALL, lambda m: str(len(m.payload)).encode()
    )
    client = stacks("A")
    payload = client.reserve_payload(50_000)
    payload.view[:] = b"w" * 50_000
    reply = client.exchange(
        "B", MessageKind.CALL, payload, MessageKind.REPLY
    )
    assert reply == b"50000"
    assert server.handovers == 1


def test_extent_pins_drain_after_ack(stacks):
    """The server's SEG_ACK (sent once its handler returns) unpins the
    request extent, so repeated bulk sends do not exhaust the segment."""
    _echo_server(stacks)
    client = stacks("A", segment_size=1 << 20)
    body = b"r" * 200_000  # five in flight would overflow 1 MiB
    for _ in range(20):
        client.endpoint.send(
            "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY
        )
    deadline = time.monotonic() + 2.0
    while client._allocator.pinned_bytes() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert client._allocator.pinned_bytes() == 0


def test_handover_trace_event(stacks):
    """Tracing records a ``segment-handover`` event per mapped extent,
    carrying the extent identity and the mapper's causal stamp."""
    stats = StatsCollector(trace=True)
    server = _echo_server(stacks, stats=stats)
    client = stacks("A", stats=stats)
    body = b"t" * 100_000
    client.endpoint.send(
        "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY
    )
    events = list(stats.events_in("segment-handover"))
    assert len(events) == 2  # request mapped at B, reply mapped at A
    request_event = next(e for e in events if e.data["kind"] == "call")
    assert request_event.data["src"] == "A"
    assert request_event.data["dst"] == "B"
    assert request_event.data["length"] == len(body)
    assert request_event.data["segment"] == client._allocator.name
    assert request_event.data["epoch"] == request_event.data["segment_epoch"]
    assert request_event.data["extent"] > 0
    for key in ("site", "seq", "vc"):
        assert key in request_event.data


def test_stale_epoch_reference_rejected(stacks):
    """Bumping the segment epoch invalidates every outstanding
    reference: a mapped-too-late extent fails loudly, never reads
    half-written bytes."""
    server = stacks("B")
    seen = []
    server.endpoint.register_handler(
        MessageKind.CALL, lambda m: seen.append(bytes(m.payload)) or b"ok"
    )
    client = stacks("A")
    body = b"s" * 100_000
    client.endpoint.send(
        "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY
    )
    client._allocator.bump_epoch()
    with pytest.raises(TransportError):
        server._validate_extent(
            client._allocator.name,
            SegmentAllocator.HEADER + _EXTENT_HEADER,
            1,
            client._allocator.epoch - 1,
        )


def test_torn_extent_stamp_rejected(stacks):
    server = stacks("B")
    client = stacks("A")
    offset, stamp, view = client._allocator.reserve(64)
    view[:2] = b"ok"
    client._allocator.publish(offset)
    # Open the segment at B, then claim a different stamp: torn.
    with pytest.raises(TransportError) as excinfo:
        server._validate_extent(
            client._allocator.name,
            offset + _EXTENT_HEADER,
            stamp + 7,
            client._allocator.epoch,
        )
    assert "torn" in str(excinfo.value)
    client._allocator.release(offset, stamp)


def test_handler_retains_lease_past_return(stacks):
    """A handler that must keep a zero-copy payload alive calls
    ``carrier_ref.retain()``; the view stays valid until it releases."""
    server = stacks("B")
    held = {}

    def keep(message):
        if message.carrier_ref is not None:
            message.carrier_ref.retain()
            held["lease"] = message.carrier_ref
            held["view"] = message.payload
        return b"kept"

    server.endpoint.register_handler(MessageKind.CALL, keep)
    client = stacks("A")
    body = b"k" * 100_000
    client.endpoint.send(
        "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY
    )
    assert bytes(held["view"]) == body
    held["lease"].validate()  # still current: epoch and stamp intact
    held["lease"].release()


# -- stale segment reaping ----------------------------------------------------


def test_purge_reaps_dead_owner_segments():
    """Segments whose recorded owner pid is dead get unlinked; live
    owners' segments are left alone."""
    prefix = "srpc-purge-" + os.urandom(3).hex()
    dead = SegmentAllocator(prefix + "-dead", 64 * 1024)
    live = SegmentAllocator(prefix + "-live", 64 * 1024)
    try:
        # Forge a dead owner: pid 1 is init (alive), so use an absurd
        # pid that cannot exist on this host.
        _U64.pack_into(dead.shm.buf, 24, 2**22 + 12345)
        reaped = purge_stale_segments(prefix)
        assert prefix + "-dead" in reaped
        assert prefix + "-live" not in reaped
        assert not os.path.exists(os.path.join(SHM_DIR, prefix + "-dead"))
        assert os.path.exists(os.path.join(SHM_DIR, prefix + "-live"))
    finally:
        dead._mv = memoryview(b"")
        dead.shm.close()
        live.close()


def test_close_unlinks_every_segment():
    transport = ShmTransport("solo")
    transport.start()
    name = transport.name
    assert [e for e in os.listdir(SHM_DIR) if e.startswith(name)] == [
        name + ".d"
    ]
    transport.close()
    leftovers = [
        entry for entry in os.listdir(SHM_DIR) if entry.startswith(name)
    ]
    assert leftovers == []
