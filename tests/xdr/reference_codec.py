"""The recursive, ``isinstance``-dispatched codec ladder, kept as an oracle.

This is the per-datum encode/decode/skip code that lived in
``repro.xdr.raw`` and ``repro.smartrpc.transfer`` before the compiled
wire plans replaced it, together with the batch functions that drove
it one field at a time.  Production code no longer contains it; the
differential tests compare the plans against it byte for byte and
hook call for hook call.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Set, Union

from repro.memory.address_space import AddressSpace
from repro.smartrpc.closure import ClosureItem
from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.long_pointer import (
    HandlePool,
    LongPointer,
    decode_long_pointer_pooled,
    encode_long_pointer_pooled,
)
from repro.xdr.arch import Architecture
from repro.xdr.errors import XdrError
from repro.xdr.raw import raw_identity_size
from repro.xdr.stream import XdrDecoder, XdrEncoder
from repro.xdr.types import (
    ArrayType,
    EnumType,
    OpaqueType,
    PointerType,
    ScalarKind,
    ScalarType,
    StructType,
    TypeSpec,
    UnionType,
)

PointerOut = Callable[[int, str], None]
PointerIn = Callable[[str], int]


class ReferenceCodec:
    """The recursive per-field codec the wire plans replaced (oracle only)."""

    def __init__(self, space: AddressSpace, arch: Architecture) -> None:
        self.space = space
        self.arch = arch

    def _bulk_array_bytes(self, spec: ArrayType):
        """Total byte count for a bulk array copy, or ``None``."""
        if spec.count == 0:
            return None
        unit = raw_identity_size(spec.element, self.arch)
        if unit is None or unit != spec.stride(self.arch):
            return None
        return unit * spec.count

    # -- encoding (native memory -> canonical) ------------------------------

    def encode(
        self,
        address: int,
        spec: TypeSpec,
        encoder: XdrEncoder,
        pointer_out: PointerOut,
    ) -> None:
        """Append the canonical form of the value at ``address``."""
        if isinstance(spec, ScalarType):
            raw = self.space.read_raw(address, spec.kind.size)
            value = spec.unpack_raw(raw, self.arch)
            _pack_scalar(encoder, spec.kind, value)
        elif isinstance(spec, OpaqueType):
            encoder.pack_fixed_opaque(
                self.space.read_raw(address, spec.length)
            )
        elif isinstance(spec, PointerType):
            pointer = self.read_pointer(address)
            pointer_out(pointer, spec.target_type_id)
        elif isinstance(spec, ArrayType):
            bulk = self._bulk_array_bytes(spec)
            if bulk is not None:
                encoder.pack_fixed_opaque(self.space.read_raw(address, bulk))
                return
            stride = spec.stride(self.arch)
            for index in range(spec.count):
                self.encode(
                    address + index * stride,
                    spec.element,
                    encoder,
                    pointer_out,
                )
        elif isinstance(spec, StructType):
            layout = spec.layout(self.arch)
            for field in spec.fields:
                self.encode(
                    address + layout.offsets[field.name],
                    field.spec,
                    encoder,
                    pointer_out,
                )
        elif isinstance(spec, EnumType):
            raw = self.space.read_raw(address, 4)
            value = int.from_bytes(raw, self.arch.byteorder, signed=True)
            spec.name_of(value)  # validates membership
            encoder.pack_int32(value)
        elif isinstance(spec, UnionType):
            raw = self.space.read_raw(address, 4)
            value = int.from_bytes(raw, self.arch.byteorder, signed=True)
            arm = spec.arm_for(value)
            encoder.pack_int32(value)
            self.encode(
                address + spec.body_offset(self.arch),
                arm,
                encoder,
                pointer_out,
            )
        else:
            raise XdrError(f"cannot encode spec {spec!r}")

    # -- decoding (canonical -> native memory) --------------------------------

    def decode(
        self,
        decoder: XdrDecoder,
        address: int,
        spec: TypeSpec,
        pointer_in: PointerIn,
    ) -> None:
        """Materialise one canonical value into memory at ``address``.

        Writes through the raw (kernel) plane: the destination is
        typically a protected cache page being filled by the runtime.
        """
        if isinstance(spec, ScalarType):
            value = _unpack_scalar(decoder, spec.kind)
            self.space.write_raw(address, spec.pack_raw(value, self.arch))
        elif isinstance(spec, OpaqueType):
            self.space.write_raw(
                address, decoder.unpack_fixed_view(spec.length)
            )
        elif isinstance(spec, PointerType):
            pointer = pointer_in(spec.target_type_id)
            self.write_pointer(address, pointer)
        elif isinstance(spec, ArrayType):
            bulk = self._bulk_array_bytes(spec)
            if bulk is not None:
                self.space.write_raw(
                    address, decoder.unpack_fixed_view(bulk)
                )
                return
            stride = spec.stride(self.arch)
            for index in range(spec.count):
                self.decode(
                    decoder, address + index * stride, spec.element, pointer_in
                )
        elif isinstance(spec, StructType):
            layout = spec.layout(self.arch)
            for field in spec.fields:
                self.decode(
                    decoder,
                    address + layout.offsets[field.name],
                    field.spec,
                    pointer_in,
                )
        elif isinstance(spec, EnumType):
            value = decoder.unpack_int32()
            spec.name_of(value)  # validates membership
            self.space.write_raw(
                address,
                value.to_bytes(4, self.arch.byteorder, signed=True),
            )
        elif isinstance(spec, UnionType):
            value = decoder.unpack_int32()
            arm = spec.arm_for(value)
            self.space.write_raw(
                address,
                value.to_bytes(4, self.arch.byteorder, signed=True),
            )
            self.decode(
                decoder,
                address + spec.body_offset(self.arch),
                arm,
                pointer_in,
            )
        else:
            raise XdrError(f"cannot decode spec {spec!r}")

    # -- pointer words --------------------------------------------------------

    def read_pointer(self, address: int) -> int:
        """Read one ordinary pointer word (raw plane)."""
        raw = self.space.read_raw(address, self.arch.pointer_size)
        return int.from_bytes(raw, self.arch.byteorder)

    def write_pointer(self, address: int, value: int) -> None:
        """Write one ordinary pointer word (raw plane)."""
        if value < 0 or value >= 1 << (8 * self.arch.pointer_size):
            raise XdrError(
                f"pointer {value:#x} does not fit in "
                f"{self.arch.pointer_size} bytes on {self.arch.name}"
            )
        self.space.write_raw(
            address,
            value.to_bytes(self.arch.pointer_size, self.arch.byteorder),
        )


def _pack_scalar(
    encoder: XdrEncoder, kind: ScalarKind, value: Union[int, float]
) -> None:
    if kind is ScalarKind.FLOAT32:
        encoder.pack_float(float(value))
    elif kind is ScalarKind.FLOAT64:
        encoder.pack_double(float(value))
    elif kind in (ScalarKind.INT64,):
        encoder.pack_int64(int(value))
    elif kind in (ScalarKind.UINT64,):
        encoder.pack_uint64(int(value))
    elif kind in (ScalarKind.INT8, ScalarKind.INT16, ScalarKind.INT32):
        encoder.pack_int32(int(value))
    else:
        encoder.pack_uint32(int(value))


def _unpack_scalar(decoder: XdrDecoder, kind: ScalarKind) -> Union[int, float]:
    if kind is ScalarKind.FLOAT32:
        return decoder.unpack_float()
    if kind is ScalarKind.FLOAT64:
        return decoder.unpack_double()
    if kind is ScalarKind.INT64:
        return decoder.unpack_int64()
    if kind is ScalarKind.UINT64:
        return decoder.unpack_uint64()
    if kind in (ScalarKind.INT8, ScalarKind.INT16, ScalarKind.INT32):
        return decoder.unpack_int32()
    return decoder.unpack_uint32()


def skip_value(decoder: XdrDecoder, spec: TypeSpec, pool: HandlePool) -> None:
    """Consume one canonical value without materialising it."""
    if isinstance(spec, ScalarType):
        # XDR packs a scalar in 4-byte units (8-byte ones take two).
        decoder.unpack_fixed_opaque(max(4, spec.kind.size))
    elif isinstance(spec, OpaqueType):
        decoder.unpack_fixed_opaque(spec.length)
    elif isinstance(spec, PointerType):
        decode_long_pointer_pooled(decoder, pool)
    elif isinstance(spec, ArrayType):
        for _ in range(spec.count):
            skip_value(decoder, spec.element, pool)
    elif isinstance(spec, StructType):
        for field in spec.fields:
            skip_value(decoder, field.spec, pool)
    elif isinstance(spec, EnumType):
        decoder.unpack_int32()
    elif isinstance(spec, UnionType):
        discriminant = decoder.unpack_int32()
        skip_value(decoder, spec.arm_for(discriminant), pool)
    else:
        raise XdrError(f"cannot skip value of spec {spec!r}")


# -- the per-field batch functions --------------------------------------------


def reference_decode_pool(decoder: XdrDecoder) -> HandlePool:
    """Read a pool table through the stream decoder, one string at a
    time (the oracle for ``read_pool_head``)."""
    unpack = decoder.unpack_string
    return HandlePool(
        [(unpack(), unpack()) for _ in range(decoder.unpack_uint32())]
    )


def _post_shipped(runtime, state, demanded: int, prefetched: int) -> None:
    """Count fill-path bytes in both ledgers, one datum at a time."""
    for ledger in (state.transfer_stats, runtime.stats.transfer_ledger):
        ledger.closure_bytes_shipped += demanded + prefetched
        ledger.prefetch_bytes_shipped += prefetched


def reference_encode_batch(runtime, state, items: Sequence[ClosureItem]) -> bytes:
    """``transfer.encode_batch`` as it was: one hook call per pointer."""
    codec = ReferenceCodec(runtime.space, runtime.arch)
    pool = HandlePool()
    body = XdrEncoder()

    def pointer_out(value: int, _target: str) -> None:
        pointer = state.swizzler.unswizzle(value)
        if pointer is not None and pointer.is_provisional:
            raise SmartRpcError(
                f"provisional {pointer!r} leaked onto the wire; the "
                "memory batch must flush before any transfer"
            )
        encode_long_pointer_pooled(body, pointer, pool)

    for item in items:
        encode_long_pointer_pooled(body, item.pointer, pool)
        codec.encode(item.address, item.spec, body, pointer_out)
    head = XdrEncoder()
    head.pack_fixed_opaque(pool.head())
    head.pack_uint32(len(items))
    return head.getvalue() + body.getvalue()


def reference_apply_batch(
    runtime,
    state,
    payload: bytes,
    overwrite: bool,
    demanded: Optional[Set[LongPointer]] = None,
) -> int:
    """``transfer.apply_batch`` as it was: ledgers posted per item."""
    codec = ReferenceCodec(runtime.space, runtime.arch)
    decoder = XdrDecoder(payload)
    pool = reference_decode_pool(decoder)
    count = decoder.unpack_uint32()

    def pointer_in(_target: str) -> int:
        return state.swizzler.swizzle(
            decode_long_pointer_pooled(decoder, pool)
        )

    applied = 0
    for _ in range(count):
        pointer = decode_long_pointer_pooled(decoder, pool)
        if pointer is None:
            raise SmartRpcError("batch item with NULL long pointer")
        spec = runtime.resolver.resolve(pointer.type_id)
        if pointer.space_id == runtime.site_id:
            if not runtime.heap.owns(pointer.address):
                raise SmartRpcError(
                    f"batch updates dead home data {pointer!r}"
                )
            codec.decode(decoder, pointer.address, spec, pointer_in)
            applied += 1
            runtime.stats.entries_transferred += 1
            continue
        entry = state.cache.ensure_entry(pointer)
        if entry.resident and not overwrite:
            skip_value(decoder, spec, pool)
            runtime.stats.duplicate_entries += 1
            if demanded is not None:
                _post_shipped(runtime, state, 0, entry.size)
            continue
        codec.decode(decoder, entry.local_address, spec, pointer_in)
        state.cache.mark_resident(entry)
        if demanded is not None:
            prefetched = pointer not in demanded
            if not entry.shipped and not entry.touched:
                state.cache.untouched_shipped += 1
            entry.shipped = True
            entry.prefetched = prefetched
            if prefetched:
                _post_shipped(runtime, state, 0, entry.size)
            else:
                _post_shipped(runtime, state, entry.size, 0)
        if overwrite:
            state.relayed_dirty[entry] = state.epoch
        applied += 1
        runtime.stats.entries_transferred += 1
        if state.cache.datum_seal is not None:
            state.cache.datum_seal()
    decoder.expect_done()
    state.cache.finish_batch()
    return applied
