"""Micro-benchmark: zero-copy XDR streams vs the seed implementation.

The seed ``XdrEncoder`` accumulated a ``List[bytes]`` chunk per field
and joined them in ``getvalue``; the seed ``XdrDecoder`` sliced a new
``bytes`` object out of the stream for every field; and ``RawCodec``
encoded arrays one element at a time.  This module keeps a faithful
copy of that implementation (``_Legacy*``) and measures it against the
current growable-buffer/``memoryview``/bulk-copy path on a page-sized
payload (one 4096-byte cache page of uint32s), asserting the rework is
at least 2x faster on both encode and decode.

Run with ``pytest benchmarks/bench_xdr.py`` — the reproduced
throughput ratios are printed in the terminal summary.
"""

from __future__ import annotations

import struct
import time
from typing import List

from conftest import record_sim_result

from repro.memory.address_space import AddressSpace
from repro.xdr.arch import SPARC32
from repro.xdr.raw import RawCodec
from repro.xdr.stream import XdrDecoder, XdrEncoder
from repro.xdr.types import ArrayType, ScalarType, uint32

PAGE_BYTES = 4096
PAGE_SPEC = ArrayType(uint32, PAGE_BYTES // 4)

#: Wall-time floor per measurement; keeps the ratio stable without
#: making the suite slow.
MIN_SECONDS = 0.05


class _LegacyEncoder:
    """The seed's chunk-list encoder, kept verbatim for comparison."""

    def __init__(self) -> None:
        self._chunks: List[bytes] = []
        self._size = 0

    def pack_uint32(self, value: int) -> None:
        self._append(struct.pack(">I", value))

    def pack_int32(self, value: int) -> None:
        self._append(struct.pack(">i", value))

    def pack_uint64(self, value: int) -> None:
        self._append(struct.pack(">Q", value))

    def pack_int64(self, value: int) -> None:
        self._append(struct.pack(">q", value))

    def pack_float(self, value: float) -> None:
        self._append(struct.pack(">f", value))

    def pack_double(self, value: float) -> None:
        self._append(struct.pack(">d", value))

    def pack_fixed_opaque(self, data: bytes) -> None:
        self._append(data)
        remainder = self._size % 4
        if remainder:
            self._append(b"\x00" * (4 - remainder))

    def pack_opaque(self, data: bytes) -> None:
        self.pack_uint32(len(data))
        self.pack_fixed_opaque(data)

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)

    def _append(self, data: bytes) -> None:
        self._chunks.append(data)
        self._size += len(data)


class _LegacyDecoder:
    """The seed's slice-per-field decoder, kept verbatim."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._cursor = 0

    def unpack_uint32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def unpack_int32(self) -> int:
        return struct.unpack(">i", self._take(4))[0]

    def unpack_uint64(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def unpack_int64(self) -> int:
        return struct.unpack(">q", self._take(8))[0]

    def unpack_float(self) -> float:
        return struct.unpack(">f", self._take(4))[0]

    def unpack_double(self) -> float:
        return struct.unpack(">d", self._take(8))[0]

    def unpack_fixed_opaque(self, length: int) -> bytes:
        data = self._take(length)
        remainder = length % 4
        if remainder:
            self._take(4 - remainder)
        return data

    def _take(self, size: int) -> bytes:
        data = self._data[self._cursor : self._cursor + size]
        self._cursor += size
        return data


def _page_world():
    """An address space holding one page-sized uint32 array."""
    space = AddressSpace("bench", page_size=PAGE_BYTES)
    base = space.map_region(2)  # payload page + decode scratch page
    payload = struct.pack(">1024I", *range(PAGE_SPEC.count))
    space.write_raw(base, payload)
    return space, base, payload


def _legacy_encode_page(codec: RawCodec, address: int) -> bytes:
    """The seed's per-element array encode loop."""
    encoder = _LegacyEncoder()
    element = PAGE_SPEC.element
    stride = PAGE_SPEC.stride(codec.arch)
    assert isinstance(element, ScalarType)
    for index in range(PAGE_SPEC.count):
        raw = codec.space.read_raw(address + index * stride, 4)
        encoder.pack_uint32(element.unpack_raw(raw, codec.arch))
    return encoder.getvalue()


def _legacy_decode_page(codec: RawCodec, payload: bytes, address: int) -> None:
    """The seed's per-element array decode loop."""
    decoder = _LegacyDecoder(payload)
    element = PAGE_SPEC.element
    stride = PAGE_SPEC.stride(codec.arch)
    for index in range(PAGE_SPEC.count):
        value = decoder.unpack_uint32()
        codec.space.write_raw(
            address + index * stride, element.pack_raw(value, codec.arch)
        )


def _current_encode_page(codec: RawCodec, address: int) -> bytes:
    encoder = XdrEncoder()
    codec.encode(address, PAGE_SPEC, encoder, None)
    return encoder.getvalue()


def _current_decode_page(codec: RawCodec, payload: bytes, address: int) -> None:
    codec.decode(XdrDecoder(payload), address, PAGE_SPEC, None)


def _throughput(fn) -> float:
    """Page payloads per second, timed over at least MIN_SECONDS."""
    fn()  # warm up (page creation, pools)
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_SECONDS:
            return loops / elapsed
        loops *= 2


def test_xdr_encode_page_throughput(benchmark):
    space, base, _ = _page_world()
    codec = RawCodec(space, SPARC32)
    expected = _legacy_encode_page(codec, base)
    assert _current_encode_page(codec, base) == expected

    legacy = _throughput(lambda: _legacy_encode_page(codec, base))
    current = _throughput(lambda: _current_encode_page(codec, base))
    benchmark.pedantic(
        lambda: _current_encode_page(codec, base), rounds=20, iterations=5
    )
    ratio = current / legacy
    benchmark.extra_info["legacy_pages_per_s"] = round(legacy, 1)
    benchmark.extra_info["current_pages_per_s"] = round(current, 1)
    benchmark.extra_info["speedup"] = round(ratio, 1)
    record_sim_result(
        f"xdr encode page ({PAGE_BYTES}B): {current:10.0f} pages/s "
        f"vs seed {legacy:8.0f} pages/s  ({ratio:.1f}x)"
    )
    assert ratio >= 2.0, (
        f"page encode only {ratio:.2f}x over the seed codec"
    )


def test_xdr_decode_page_throughput(benchmark):
    space, base, _ = _page_world()
    codec = RawCodec(space, SPARC32)
    payload = _current_encode_page(codec, base)
    scratch = base + PAGE_BYTES

    _legacy_decode_page(codec, payload, scratch)
    assert space.read_raw(scratch, PAGE_BYTES) == space.read_raw(
        base, PAGE_BYTES
    )
    _current_decode_page(codec, payload, scratch)
    assert space.read_raw(scratch, PAGE_BYTES) == space.read_raw(
        base, PAGE_BYTES
    )

    legacy = _throughput(lambda: _legacy_decode_page(codec, payload, scratch))
    current = _throughput(
        lambda: _current_decode_page(codec, payload, scratch)
    )
    benchmark.pedantic(
        lambda: _current_decode_page(codec, payload, scratch),
        rounds=20,
        iterations=5,
    )
    ratio = current / legacy
    benchmark.extra_info["legacy_pages_per_s"] = round(legacy, 1)
    benchmark.extra_info["current_pages_per_s"] = round(current, 1)
    benchmark.extra_info["speedup"] = round(ratio, 1)
    record_sim_result(
        f"xdr decode page ({PAGE_BYTES}B): {current:10.0f} pages/s "
        f"vs seed {legacy:8.0f} pages/s  ({ratio:.1f}x)"
    )
    assert ratio >= 2.0, (
        f"page decode only {ratio:.2f}x over the seed codec"
    )


def test_xdr_scalar_stream_throughput(benchmark):
    """Field-at-a-time streams (headers): report, no hard floor."""

    def legacy():
        encoder = _LegacyEncoder()
        for value in range(256):
            encoder.pack_uint32(value)
            encoder.pack_uint64(value)
        decoder = _LegacyDecoder(encoder.getvalue())
        for _ in range(256):
            decoder.unpack_uint32()
            decoder.unpack_uint64()

    def current():
        encoder = XdrEncoder()
        for value in range(256):
            encoder.pack_uint32(value)
            encoder.pack_uint64(value)
        decoder = XdrDecoder(encoder.getbuffer())
        for _ in range(256):
            decoder.unpack_uint32()
            decoder.unpack_uint64()
        decoder.expect_done()

    legacy_rate = _throughput(legacy)
    current_rate = _throughput(current)
    benchmark.pedantic(current, rounds=20, iterations=5)
    ratio = current_rate / legacy_rate
    benchmark.extra_info["speedup"] = round(ratio, 2)
    record_sim_result(
        f"xdr scalar stream (512 fields): {ratio:.2f}x over seed codec"
    )
