"""The per-field, ``isinstance``-dispatched struct access, kept as an oracle.

This is how ``StructView`` read and wrote a member before its accessors
were compiled into a per-architecture table: look the member up, work
out its address from the layout, and pick the load or store by the
member's type on every access.  Production code no longer contains it;
``test_view_differential.py`` holds the compiled accessors to it in
values, in ``XdrError`` texts and in the clock.
"""

from __future__ import annotations

from typing import Union

from repro.memory.accessor import Mem
from repro.xdr.arch import Architecture
from repro.xdr.errors import XdrError
from repro.xdr.types import (
    ArrayType,
    EnumType,
    OpaqueType,
    PointerType,
    ScalarType,
    StructType,
    TypeSpec,
)

FieldValue = Union[int, float, bytes]


def reference_get(
    mem: Mem, address: int, spec: StructType, arch: Architecture, name: str
) -> FieldValue:
    """``StructView(mem, address, spec, arch).get(name)``."""
    field = spec.field(name)
    return _load(
        mem, arch, address + spec.layout(arch).offsets[name], field.spec
    )


def reference_set(
    mem: Mem,
    address: int,
    spec: StructType,
    arch: Architecture,
    name: str,
    value: FieldValue,
) -> None:
    """``StructView(mem, address, spec, arch).set(name, value)``."""
    field = spec.field(name)
    _store(
        mem, arch, address + spec.layout(arch).offsets[name], field.spec,
        value,
    )


def reference_element(
    mem: Mem,
    address: int,
    spec: StructType,
    arch: Architecture,
    name: str,
    index: int,
) -> FieldValue:
    """``StructView(mem, address, spec, arch).element(name, index)``."""
    field = spec.field(name)
    if not isinstance(field.spec, ArrayType):
        raise XdrError(f"field {name!r} is not an array")
    if not 0 <= index < field.spec.count:
        raise XdrError(f"array index {index!r} out of range")
    stride = field.spec.stride(arch)
    return _load(
        mem,
        arch,
        address + spec.layout(arch).offsets[name] + index * stride,
        field.spec.element,
    )


def _load(
    mem: Mem, arch: Architecture, address: int, spec: TypeSpec
) -> FieldValue:
    if isinstance(spec, ScalarType):
        raw = mem.load(address, spec.kind.size)
        return spec.unpack_raw(raw, arch)
    if isinstance(spec, PointerType):
        raw = mem.load(address, arch.pointer_size)
        return int.from_bytes(raw, arch.byteorder)
    if isinstance(spec, OpaqueType):
        return mem.load(address, spec.length)
    if isinstance(spec, EnumType):
        raw = mem.load(address, 4)
        return int.from_bytes(raw, arch.byteorder, signed=True)
    raise XdrError(f"cannot load aggregate field of type {spec!r}")


def _store(
    mem: Mem,
    arch: Architecture,
    address: int,
    spec: TypeSpec,
    value: FieldValue,
) -> None:
    if isinstance(spec, ScalarType):
        if isinstance(value, bytes):
            raise XdrError(f"scalar field given bytes value {value!r}")
        mem.store(address, spec.pack_raw(value, arch))
    elif isinstance(spec, PointerType):
        if not isinstance(value, int):
            raise XdrError(f"pointer field given {value!r}")
        mem.store(address, value.to_bytes(arch.pointer_size, arch.byteorder))
    elif isinstance(spec, OpaqueType):
        if not isinstance(value, bytes) or len(value) != spec.length:
            raise XdrError(
                f"opaque field of {spec.length} bytes given {value!r}"
            )
        mem.store(address, value)
    elif isinstance(spec, EnumType):
        if isinstance(value, str):
            value = spec.value_of(value)
        if not isinstance(value, int) or not spec.is_valid(value):
            raise XdrError(f"enum field {spec.name!r} given {value!r}")
        mem.store(address, value.to_bytes(4, arch.byteorder, signed=True))
    else:
        raise XdrError(f"cannot store aggregate field of type {spec!r}")
