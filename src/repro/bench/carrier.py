"""Raw carrier microbenchmarks: the per-byte cost of a bulk reply.

The smart-pointer runtime's dominant bulk operation is filling pages
on the caller's side of an exchange.  Both carriers copy a reply body
through framing, two socket buffers and a reassembled ``bytes``; they
differ only in the socket's address family.  Everything here
measures the *slope* between a small and a large reply, so every
fixed per-exchange cost (frames, wakeups, dials) cancels out.
:func:`carrier_rtt_us` measures exactly what the slopes cancel: the
round trip of a 16-byte echo, the cost unit of the paper's callback —
and, as the yardstick that makes it comparable across hosts, the same
ping-pong over a bare blocking socket (:data:`FLOOR`), plus the one
piece of an exchange that is pure Python on both carriers: a
``Request`` through the frame codec and back (:data:`FRAME`).

Used by ``benchmarks/bench_xdr.py`` (the asserting benchmark) and by
``benchmarks/baseline.py`` (which records the slopes into
``BENCH_shm.json`` next to the Figure 4 crossover sweep).
"""

from __future__ import annotations

import contextlib
import gc
import os
import socket
import statistics
import struct
import threading
import time
from typing import Callable, Dict, Iterator, Tuple

from repro.simnet.message import MessageKind
from repro.transport.base import Transport
from repro.transport.framing import Request, decode_frame, encode_frame_into
from repro.xdr.stream import XdrEncoder

from .harness import PATIENT_RETRY, make_carrier

#: The two reply sizes whose timing difference isolates per-byte cost.
BULK_SMALL = 64 * 1024
BULK_BIG = 4 * 1024 * 1024

#: Wall-time floor per measurement batch.
MIN_SECONDS = 0.05

#: Individually timed round trips behind each RTT percentile.
RTT_ECHOES = 2000

#: The pseudo-carrier :func:`carrier_rtt_us` measures as the host's
#: yardstick: two threads, one blocking TCP socket pair, no framing.
FLOOR = "floor"

#: The other pseudo-carrier: no wire at all, one 64-byte ``Request``
#: encoded and decoded again — the frame codec's share of an exchange.
FRAME = "frame"

_SIZE_REQ = struct.Struct(">Q")
_SOURCE = bytes(range(256)) * (BULK_BIG // 256)

def seconds_per_call(fn: Callable[[], None]) -> float:
    """Best-of-three seconds per call, timed over >= MIN_SECONDS.

    Collections are off during the timed region (the ``timeit``
    discipline): a gen-2 pass landing inside a polling handoff on a
    small host inflates an exchange by two orders of magnitude, and
    what is being measured here is the carrier, not the collector.
    """
    fn()  # warm up (dial, first buffers)
    gc.collect()
    gc.disable()
    try:
        loops = 1
        while True:
            start = time.perf_counter()
            for _ in range(loops):
                fn()
            elapsed = time.perf_counter() - start
            if elapsed >= MIN_SECONDS:
                break
            loops *= 2
        best = elapsed / loops
        for _ in range(2):
            start = time.perf_counter()
            for _ in range(loops):
                fn()
            best = min(best, (time.perf_counter() - start) / loops)
        return best
    finally:
        gc.enable()


def memcpy_per_byte() -> float:
    """The floor both carriers share: one plain bulk copy."""
    source = memoryview(_SOURCE)
    scratch = bytearray(BULK_BIG)

    def copy(n: int) -> None:
        scratch[:n] = source[:n]

    small = seconds_per_call(lambda: copy(BULK_SMALL))
    big = seconds_per_call(lambda: copy(BULK_BIG))
    return (big - small) / (BULK_BIG - BULK_SMALL)


@contextlib.contextmanager
def _deployment(carrier: str) -> Iterator[Tuple[Transport, Transport]]:
    """A started, mutually introduced ``(server B, client A)`` pair."""
    with contextlib.closing(
        make_carrier(carrier, "B", retry=PATIENT_RETRY)
    ) as server, contextlib.closing(
        make_carrier(carrier, "A", retry=PATIENT_RETRY)
    ) as client:
        client.add_peer("B", server.address)
        server.add_peer("A", client.address)
        yield server, client


def _percentiles_us(
    fn: Callable[[], object], calls: int
) -> Tuple[float, float]:
    """``(p50, p99)`` microseconds of ``calls`` individually timed calls,
    under :func:`seconds_per_call`'s discipline: warmed up, collector
    off."""
    for _ in range(20):  # dial, wake every service thread
        fn()
    gc.collect()
    gc.disable()
    try:
        samples = []
        for _ in range(calls):
            start = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - start) * 1e6)
    finally:
        gc.enable()
    cuts = statistics.quantiles(samples, n=100)
    return cuts[49], cuts[98]


@contextlib.contextmanager
def _one_cpu() -> Iterator[None]:
    """Pin this thread, and every thread it starts, to one CPU.

    An RTT is a chain of wake-ups; unpinned on a small VM each of them
    may cross CPUs, and two consecutive runs of the same code read 234
    and 518 us.  A no-op where the platform cannot pin.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _socket_floor_us(body: bytes, echoes: int) -> Tuple[float, float]:
    """``(p50, p99)`` of ``body`` bounced off a thread over bare TCP."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.create_connection(listener.getsockname())
        served, _peer = listener.accept()
    for sock in (client, served):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def bounce() -> None:
        with served:
            while True:
                data = served.recv(len(body))
                if not data:
                    return
                served.sendall(data)

    def ping() -> None:
        client.sendall(body)
        client.recv(len(body))

    bouncer = threading.Thread(target=bounce, daemon=True)
    bouncer.start()
    try:
        return _percentiles_us(ping, echoes)
    finally:
        client.close()
        bouncer.join(5.0)


def _frame_roundtrip_us(batch: int = 256) -> float:
    """One 64-byte ``Request`` through ``encode_frame_into`` and
    ``decode_frame`` — the loop ``srpcbench`` times as
    ``transport.framing.roundtrip_ns``."""
    request = Request(
        exchange_id=7,
        src="A",
        dst="B",
        kind=MessageKind.DATA_REQUEST.value,
        expects_reply=True,
        payload=bytes(64),
    )
    encoder = XdrEncoder()

    def roundtrips() -> None:
        for _ in range(batch):
            encoder.reset()
            image = encode_frame_into(request, encoder)
            wire = bytes(image)  # what a socket would carry
            image.release()
            decode_frame(memoryview(wire)[4:])  # body after the length

    return seconds_per_call(roundtrips) * 1e6 / batch


@_one_cpu()
def carrier_rtt_us(
    carrier: str, echoes: int = RTT_ECHOES
) -> Dict[str, float]:
    """Round-trip microseconds of one exchange over one carrier,
    measured with every thread involved pinned to one CPU.

    ``echo_*`` is a full 16-byte request/reply exchange through a
    handler (what every fault-driven callback costs); ``ping_p50`` is
    the transport-level PING/PONG underneath it, which skips handler
    dispatch and the at-most-once bookkeeping — the carrier's own
    hand-off cost.  :data:`FLOOR` instead of a carrier gives the same
    16 bytes bounced over a bare blocking socket: what this host
    charges for two wake-ups and four system calls, the unit a
    carrier's echo can be gated in on any host.  :data:`FRAME` gives
    ``roundtrip_us``, the frame codec alone on the same pinned CPU.
    """
    if carrier == FRAME:
        return {"roundtrip_us": round(_frame_roundtrip_us(), 2)}
    body = bytes(16)
    if carrier == FLOOR:
        echo_p50, echo_p99 = _socket_floor_us(body, echoes)
        return {
            "echo_p50": round(echo_p50, 1),
            "echo_p99": round(echo_p99, 1),
        }
    with _deployment(carrier) as (server, client):
        server.endpoint.register_handler(
            MessageKind.CALL, lambda message: bytes(message.payload)
        )
        echo_p50, echo_p99 = _percentiles_us(
            lambda: client.endpoint.send(
                "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY
            ),
            echoes,
        )
        ping_p50, _ = _percentiles_us(lambda: client.ping("B"), echoes)
    return {
        "echo_p50": round(echo_p50, 1),
        "echo_p99": round(echo_p99, 1),
        "ping_p50": round(ping_p50, 1),
    }


def carrier_per_byte(carrier: str) -> float:
    """Marginal per-byte seconds of a bulk reply over one carrier.

    The server's handler performs exactly one production copy (a
    ``bytes`` slice), so the difference in slope between carriers is
    carrier overhead.
    """
    with _deployment(carrier) as (server, client):

        def handler(message):
            n = _SIZE_REQ.unpack(bytes(message.payload))[0]
            return _SOURCE[:n]

        server.endpoint.register_handler(MessageKind.CALL, handler)

        def fetch(n: int) -> None:
            reply = client.endpoint.send(
                "B",
                MessageKind.CALL,
                _SIZE_REQ.pack(n),
                reply_kind=MessageKind.REPLY,
            )
            assert len(reply) == n

        small = seconds_per_call(lambda: fetch(BULK_SMALL))
        big = seconds_per_call(lambda: fetch(BULK_BIG))
        return (big - small) / (BULK_BIG - BULK_SMALL)
