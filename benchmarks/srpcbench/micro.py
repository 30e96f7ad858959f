"""Micro metrics: one fine-grained public function at a time.

These are the per-datum functions — about a million calls in one cold
list operation — that a span wrapper would distort, so each is called
in isolation on fixed inputs and timed with the
``repro.bench.carrier.seconds_per_call`` discipline (collector off,
best of three batches over a wall-time floor).  Carrier round trips
are reported as percentiles instead, because their tail is the point.

Run as a script this prints one JSON object: metric name -> value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.bench.carrier import (  # noqa: E402
    carrier_per_byte,
    memcpy_per_byte,
    seconds_per_call,
)
from repro.bench.harness import (  # noqa: E402
    CALLER,
    SHM,
    SIMNET,
    TCP,
    make_world,
)
from repro.memory.accessor import Mem  # noqa: E402
from repro.memory.address_space import AddressSpace  # noqa: E402
from repro.simnet.clock import SimClock  # noqa: E402
from repro.simnet.message import MessageKind  # noqa: E402
from repro.simnet.network import Network  # noqa: E402
from repro.smartrpc.long_pointer import LongPointer  # noqa: E402
from repro.transport.base import RetryPolicy  # noqa: E402
from repro.transport.framing import (  # noqa: E402
    Request,
    decode_frame,
    encode_frame_into,
)
from repro.transport.shm import ShmTransport  # noqa: E402
from repro.transport.tcp import TcpTransport  # noqa: E402
from repro.workloads.linked_list import LIST_NODE_TYPE_ID  # noqa: E402
from repro.workloads.trees import (  # noqa: E402
    TREE_NODE_TYPE_ID,
    build_complete_tree,
)
from repro.xdr.arch import SPARC32  # noqa: E402
from repro.xdr.stream import XdrDecoder, XdrEncoder  # noqa: E402
from repro.xdr.types import int32  # noqa: E402

BATCH = 256
ECHOES = 2000

#: A retransmitted echo would be timed as one slow exchange.
_PATIENT = RetryPolicy(
    timeout=5.0, backoff=2.0, max_timeout=30.0, max_attempts=4
)


def _ns_each(batch: Callable[[], None], calls: int) -> float:
    return seconds_per_call(batch) * 1e9 / calls


def pointer_metrics() -> Dict[str, float]:
    """Placeholder allocation and pointer translation at the callee."""
    with make_world("paper") as world:
        state = world.callee.ensure_smart_session("micro#1", CALLER)
        pointers = [
            LongPointer(CALLER, 16 * (index + 1), LIST_NODE_TYPE_ID)
            for index in range(4096)
        ]
        cache = state.cache

        def fresh_entries() -> None:
            ensure_entry = cache.ensure_entry
            for pointer in pointers:
                ensure_entry(pointer)
            # Dropping the table makes every pointer fresh again; it
            # costs under 1 % of the 4096 allocations it amortises over.
            cache.invalidate()

        ensure_ns = _ns_each(fresh_entries, len(pointers))

        known = pointers[:BATCH]
        addresses = [cache.ensure_entry(p).local_address for p in known]
        swizzler = state.swizzler

        def swizzle_known() -> None:
            swizzle = swizzler.swizzle
            for pointer in known:
                swizzle(pointer)

        def unswizzle_known() -> None:
            unswizzle = swizzler.unswizzle
            for address in addresses:
                unswizzle(address)

        result = {
            "smartrpc.cache.ensure_entry_ns": ensure_ns,
            "smartrpc.swizzle.swizzle_ns": _ns_each(swizzle_known, BATCH),
            "smartrpc.swizzle.unswizzle_ns": _ns_each(unswizzle_known, BATCH),
        }
        world.callee.invalidate_session("micro#1")
    return result


def memory_metrics() -> Dict[str, float]:
    """``Mem`` accesses on one resident, writable page."""
    space = AddressSpace("H")
    mem = Mem(space, clock=SimClock())
    base = space.map_region(1)
    offsets = range(0, BATCH * 4, 4)
    word = b"\x00\x00\x00\x2a"

    def loads() -> None:
        load = mem.load
        for offset in offsets:
            load(base + offset, 4)

    def stores() -> None:
        store = mem.store
        for offset in offsets:
            store(base + offset, word)

    def load_array() -> None:
        mem.load_array(base, int32, BATCH, SPARC32)

    return {
        "memory.load_ns": _ns_each(loads, BATCH),
        "memory.store_ns": _ns_each(stores, BATCH),
        "memory.load_array_ns_per_elem": _ns_each(load_array, BATCH),
    }


def codec_metrics() -> Dict[str, float]:
    """``RawCodec`` on 16-byte tree nodes, pointers passed through raw."""
    with make_world("paper") as world:
        runtime = world.caller
        root = build_complete_tree(runtime, BATCH - 1)
        spec = runtime.resolver.resolve(TREE_NODE_TYPE_ID)
        size = spec.sizeof(runtime.arch)
        nodes = [root + index * size for index in range(BATCH - 1)]
        codec = runtime.codec
        encoder = XdrEncoder()

        def pointer_out(value: int, _target: str) -> None:
            encoder.pack_uint32(value)

        def encode_nodes() -> None:
            encoder.reset()
            encode = codec.encode
            for address in nodes:
                encode(address, spec, encoder, pointer_out)

        encode_ns = _ns_each(encode_nodes, len(nodes))
        image = encoder.getvalue()
        scratch = runtime.heap.malloc(size, TREE_NODE_TYPE_ID)

        def decode_nodes() -> None:
            decoder = XdrDecoder(image)
            decode = codec.decode
            pointer_in = lambda _target: decoder.unpack_uint32()  # noqa: E731
            for _ in nodes:
                decode(decoder, scratch, spec, pointer_in)

        return {
            "xdr.raw.encode_node_ns": encode_ns,
            "xdr.raw.decode_node_ns": _ns_each(decode_nodes, len(nodes)),
        }


def framing_metrics() -> Dict[str, float]:
    """One 64-byte ``Request`` through the frame encoder and decoder."""
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
        for _ in range(BATCH):
            encoder.reset()
            image = encode_frame_into(request, encoder)
            wire = bytes(image)  # what a socket or ring would carry
            image.release()
            decode_frame(memoryview(wire)[4:])  # body after the length

    return {"transport.framing.roundtrip_ns": _ns_each(roundtrips, BATCH)}


def _echo_us(send: Callable[[], bytes], echoes: int) -> List[float]:
    for _ in range(20):  # dial, map segments, warm the pollers
        send()
    samples = []
    for _ in range(echoes):
        started = time.perf_counter()
        send()
        samples.append((time.perf_counter() - started) * 1e6)
    return samples


def rtt_metrics(echoes: int) -> Dict[str, float]:
    """16-byte echo round trips over each carrier, in microseconds."""
    body = bytes(16)
    result: Dict[str, float] = {}
    for carrier in (SIMNET, TCP, SHM):
        stacks = []
        try:
            if carrier == SIMNET:
                network = Network()
                client, server = network.add_site("A"), network.add_site("B")
            else:
                make = TcpTransport if carrier == TCP else ShmTransport
                stacks = [make("B", retry=_PATIENT), make("A", retry=_PATIENT)]
                for stack in stacks:
                    stack.start()
                stacks[1].add_peer("B", stacks[0].address)
                stacks[0].add_peer("A", stacks[1].address)
                server, client = stacks[0].endpoint, stacks[1].endpoint
            server.register_handler(
                MessageKind.CALL, lambda message: bytes(message.payload)
            )
            samples = _echo_us(
                lambda: client.send(
                    "B", MessageKind.CALL, body, reply_kind=MessageKind.REPLY
                ),
                echoes,
            )
        finally:
            for stack in reversed(stacks):
                stack.close()
        cuts = statistics.quantiles(samples, n=100)
        result[f"transport.rtt_us_p50.{carrier}"] = statistics.median(samples)
        result[f"transport.rtt_us_p99.{carrier}"] = cuts[98]
    return result


def per_byte_metrics() -> Dict[str, float]:
    """Marginal per-byte cost of a bulk reply (``repro.bench.carrier``)."""
    return {
        "transport.ns_per_byte.tcp": carrier_per_byte(TCP) * 1e9,
        "transport.ns_per_byte.shm": carrier_per_byte(SHM) * 1e9,
        "transport.memcpy_ns_per_byte": memcpy_per_byte() * 1e9,
    }


def all_metrics(echoes: int = ECHOES) -> Dict[str, float]:
    """Every micro metric, by the name ``BENCHMARK.json`` gives it."""
    result: Dict[str, float] = {}
    for part in (
        pointer_metrics,
        memory_metrics,
        codec_metrics,
        framing_metrics,
        per_byte_metrics,
    ):
        result.update(part())
    result.update(rtt_metrics(echoes))
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--echoes", type=int, default=ECHOES)
    args = parser.parse_args(argv)
    print(json.dumps(all_metrics(args.echoes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
