"""Typed program-level views over memory.

Workload code reads and writes struct fields through
:class:`StructView`, which goes through the *checked* access plane
(:class:`~repro.memory.accessor.Mem`).  This is the simulation's stand-in
for compiled field accesses: a protected page faults exactly once, the
fault handler fills it, and the access then completes — transparently
to the workload, which is the paper's headline property.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

from repro.memory.accessor import Mem
from repro.xdr.arch import Architecture
from repro.xdr.errors import XdrError
from repro.xdr.raw import RunPlan, compile_run, pointer_code
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


def _field_codes(spec: TypeSpec, arch: Architecture) -> Tuple[str, int, int, int]:
    """(struct codes, in-memory size, value count, access count)."""
    if isinstance(spec, ScalarType):
        return spec.kind.struct_code, spec.kind.size, 1, 1
    if isinstance(spec, PointerType):
        return pointer_code(arch), arch.pointer_size, 1, 1
    if isinstance(spec, OpaqueType):
        return f"{spec.length}s", spec.length, 1, 1
    if isinstance(spec, EnumType):
        return "i", 4, 1, 1
    if isinstance(spec, ArrayType):
        codes, size, nvalues, accesses = _field_codes(spec.element, arch)
        if nvalues != 1 or size != spec.stride(arch):
            raise XdrError(
                f"array of {spec.element!r} cannot join an access run"
            )
        return codes * spec.count, size * spec.count, spec.count, accesses * spec.count
    raise XdrError(f"cannot load field of type {spec!r} in an access run")


def compile_run_plan(
    spec: StructType, arch: Architecture, names: Tuple[str, ...]
) -> RunPlan:
    """The (memoised) bulk-read plan for ``names`` of ``spec``.

    Plans are cached on the struct spec itself, keyed by architecture
    and name tuple, so hot traversal loops compile each run once.
    """
    cache: Dict[Tuple[str, Tuple[str, ...]], RunPlan]
    cache = getattr(spec, "_run_plans", None)
    if cache is None:
        cache = {}
        spec._run_plans = cache  # type: ignore[attr-defined]
    key = (arch.name, names)
    plan = cache.get(key)
    if plan is None:
        plan = _compile_run_plan(spec, arch, names)
        cache[key] = plan
    return plan


def _compile_run_plan(
    spec: StructType, arch: Architecture, names: Tuple[str, ...]
) -> RunPlan:
    layout = spec.layout(arch)
    members = []
    for name in names:
        codes, size, nvalues, accesses = _field_codes(
            spec.field(name).spec, arch
        )
        members.append(
            (layout.offsets[name], size, codes, nvalues, accesses)
        )
    return compile_run(
        arch, members, f"{spec.name!r} in access run {names!r}"
    )


class StructView:
    """One struct instance at a fixed address, seen through ``Mem``."""

    def __init__(
        self,
        mem: Mem,
        address: int,
        spec: StructType,
        arch: Architecture,
    ) -> None:
        self.mem = mem
        self.address = address
        self.spec = spec
        self.arch = arch
        self._layout = spec.layout(arch)

    def field_address(self, name: str) -> int:
        """Absolute address of a member."""
        return self.address + self._layout.offsets[name]

    def get(self, name: str) -> FieldValue:
        """Load a member (pointer members load as integer addresses)."""
        field = self.spec.field(name)
        return self._load(self.field_address(name), field.spec)

    def set(self, name: str, value: FieldValue) -> None:
        """Store a member."""
        field = self.spec.field(name)
        self._store(self.field_address(name), field.spec, value)

    def element(self, name: str, index: int) -> FieldValue:
        """Load one element of an array member."""
        field = self.spec.field(name)
        if not isinstance(field.spec, ArrayType):
            raise XdrError(f"field {name!r} is not an array")
        if not 0 <= index < field.spec.count:
            raise XdrError(f"array index {index!r} out of range")
        stride = field.spec.stride(self.arch)
        return self._load(
            self.field_address(name) + index * stride, field.spec.element
        )

    def get_run(self, *names: str) -> tuple:
        """Load several members with one checked access run.

        The named members' contiguous byte span (padding included) is
        read in a single :meth:`Mem.load`, so the protection check
        and fault retry are paid once per struct instead of once per
        field; the clock is still charged once per member (per element
        for array members) and the observer sees one coalesced
        callback.  Values come back in argument order, array members
        flattened into individual elements.
        """
        plan = compile_run_plan(self.spec, self.arch, names)
        blob = self.mem.load(
            self.address + plan.start, plan.span, plan.accesses
        )
        return plan.unpack(blob)

    def view(self, name: str, spec: StructType) -> "StructView":
        """Follow a pointer member to a struct of type ``spec``."""
        pointer = self.get(name)
        if not isinstance(pointer, int) or pointer == 0:
            raise XdrError(f"field {name!r} is not a valid pointer")
        return StructView(self.mem, pointer, spec, self.arch)

    # -- internals ----------------------------------------------------------

    def _load(self, address: int, spec: TypeSpec) -> FieldValue:
        if isinstance(spec, ScalarType):
            raw = self.mem.load(address, spec.kind.size)
            return spec.unpack_raw(raw, self.arch)
        if isinstance(spec, PointerType):
            raw = self.mem.load(address, self.arch.pointer_size)
            return int.from_bytes(raw, self.arch.byteorder)
        if isinstance(spec, OpaqueType):
            return self.mem.load(address, spec.length)
        if isinstance(spec, EnumType):
            raw = self.mem.load(address, 4)
            return int.from_bytes(raw, self.arch.byteorder, signed=True)
        raise XdrError(f"cannot load aggregate field of type {spec!r}")

    def _store(self, address: int, spec: TypeSpec, value: FieldValue) -> None:
        if isinstance(spec, ScalarType):
            if isinstance(value, bytes):
                raise XdrError(f"scalar field given bytes value {value!r}")
            self.mem.store(address, spec.pack_raw(value, self.arch))
        elif isinstance(spec, PointerType):
            if not isinstance(value, int):
                raise XdrError(f"pointer field given {value!r}")
            self.mem.store(
                address,
                value.to_bytes(self.arch.pointer_size, self.arch.byteorder),
            )
        elif isinstance(spec, OpaqueType):
            if not isinstance(value, bytes) or len(value) != spec.length:
                raise XdrError(
                    f"opaque field of {spec.length} bytes given {value!r}"
                )
            self.mem.store(address, value)
        elif isinstance(spec, EnumType):
            if isinstance(value, str):
                value = spec.value_of(value)
            if not isinstance(value, int) or not spec.is_valid(value):
                raise XdrError(
                    f"enum field {spec.name!r} given {value!r}"
                )
            self.mem.store(
                address,
                value.to_bytes(4, self.arch.byteorder, signed=True),
            )
        else:
            raise XdrError(f"cannot store aggregate field of type {spec!r}")
