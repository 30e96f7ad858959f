"""Typed program-level views over memory.

Workload code reads and writes struct fields through
:class:`StructView`, which goes through the *checked* access plane
(:class:`~repro.memory.accessor.Mem`).  This is the simulation's stand-in
for compiled field accesses: a protected page faults exactly once, the
fault handler fills it, and the access then completes — transparently
to the workload, which is the paper's headline property.

The field accesses are compiled as well.  A struct's
:class:`AccessorTable` is built once per architecture and memoised on
the spec (as ``StructType.layout`` is): each loadable member maps to
``(offset, size, decode, encode)``, where ``decode`` turns the member's
native bytes into its value (a C-level ``int.from_bytes`` for a
pointer, an enum or an integer scalar) and ``encode`` checks a value
and turns it into those bytes.  So a :meth:`StructView.get` is one
table lookup, one ``Mem.load`` and one decode; a
:meth:`StructView.set` is one lookup, one encode and one ``Mem.store``.
The same table holds each array member's element accessor and the
memoised :class:`~repro.xdr.raw.RunPlan` of every access run asked for.
"""

from __future__ import annotations

import struct
from functools import partial
from typing import Callable, Dict, Optional, Tuple, Union

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

#: ``(size, decode, encode, struct code)`` of a member loaded in one access.
_Access = Tuple[
    int, Callable[[bytes], FieldValue], Callable[[FieldValue], bytes], str
]


def _access(spec: TypeSpec, arch: Architecture) -> Optional[_Access]:
    """How one member of type ``spec`` is loaded and stored on ``arch``.

    ``None`` for an aggregate (array, struct, union), which no single
    access loads.  Every value check and ``XdrError`` text of a store
    lives in the ``encode`` built here.
    """
    byteorder = arch.byteorder
    if isinstance(spec, ScalarType):
        kind = spec.kind
        prefix = ">" if byteorder == "big" else "<"
        codec = struct.Struct(prefix + kind.struct_code)
        pack = codec.pack
        if kind.is_float:
            unpack = codec.unpack

            def decode(raw: bytes) -> float:
                return unpack(raw)[0]

        else:
            decode = partial(
                int.from_bytes, byteorder=byteorder, signed=kind.value[2]
            )

        def encode(value: FieldValue) -> bytes:
            if isinstance(value, bytes):
                raise XdrError(f"scalar field given bytes value {value!r}")
            try:
                return pack(value)
            except struct.error as exc:
                raise XdrError(f"cannot pack {value!r} as {kind}") from exc

        return kind.size, decode, encode, kind.struct_code
    if isinstance(spec, PointerType):
        width = arch.pointer_size

        def encode(value: FieldValue) -> bytes:
            if not isinstance(value, int):
                raise XdrError(f"pointer field given {value!r}")
            return value.to_bytes(width, byteorder)

        return (
            width, partial(int.from_bytes, byteorder=byteorder), encode,
            pointer_code(arch),
        )
    if isinstance(spec, OpaqueType):
        length = spec.length

        def encode(value: FieldValue) -> bytes:
            if not isinstance(value, bytes) or len(value) != length:
                raise XdrError(
                    f"opaque field of {length} bytes given {value!r}"
                )
            return value

        # ``Mem.load`` already returns ``bytes``, which ``bytes`` hands
        # back as it is.
        return length, bytes, encode, f"{length}s"
    if isinstance(spec, EnumType):
        value_of = spec.value_of
        valid = spec.is_valid

        def encode(value: FieldValue) -> bytes:
            if isinstance(value, str):
                value = value_of(value)
            if not isinstance(value, int) or not valid(value):
                raise XdrError(f"enum field {spec.name!r} given {value!r}")
            return value.to_bytes(4, byteorder, signed=True)

        return (
            4, partial(int.from_bytes, byteorder=byteorder, signed=True),
            encode, "i",
        )
    return None


class AccessorTable:
    """The compiled field accessors of one struct on one architecture.

    * ``fields``: member name → ``(offset, size, decode, encode)``, for
      every member one access loads (aggregates are absent);
    * ``elements``: array member name → ``(offset, stride, count,
      size, decode, element spec)``, ``decode`` being ``None`` for an
      array of aggregates;
    * ``runs``: name tuple → :class:`~repro.xdr.raw.RunPlan`, each
      compiled the first time its run is asked for.
    """

    __slots__ = ("fields", "elements", "runs")

    def __init__(self, spec: StructType, arch: Architecture) -> None:
        offsets = spec.layout(arch).offsets
        self.fields: Dict[str, Tuple[int, int, Callable, Callable]] = {}
        self.elements: Dict[str, tuple] = {}
        self.runs = _RunPlans(spec, arch)
        for field in spec.fields:
            offset = offsets[field.name]
            access = _access(field.spec, arch)
            if access is not None:
                size, decode, encode, _ = access
                self.fields[field.name] = (offset, size, decode, encode)
            elif isinstance(field.spec, ArrayType):
                element = field.spec.element
                access = _access(element, arch)
                size, decode = (None, None) if access is None else access[:2]
                self.elements[field.name] = (
                    offset, field.spec.stride(arch), field.spec.count,
                    size, decode, element,
                )


class _RunPlans(dict):
    """One struct's run plans on one architecture, compiled on first
    lookup: a hit is a plain subscript, with no call at all."""

    __slots__ = ("spec", "arch")

    def __init__(self, spec: StructType, arch: Architecture) -> None:
        super().__init__()
        self.spec = spec
        self.arch = arch

    def __missing__(self, names: Tuple[str, ...]) -> RunPlan:
        plan = self[names] = _compile_run_plan(self.spec, self.arch, names)
        return plan


def accessor_table(spec: StructType, arch: Architecture) -> AccessorTable:
    """The (memoised) accessor table of ``spec`` on ``arch``."""
    table = spec._accessors.get(arch.name)
    if table is None:
        table = spec._accessors[arch.name] = AccessorTable(spec, arch)
    return table


def _field_codes(spec: TypeSpec, arch: Architecture) -> Tuple[str, int, int, int]:
    """(struct codes, in-memory size, value count, access count)."""
    access = _access(spec, arch)
    if access is not None:
        return access[3], access[0], 1, 1
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

    Plans are kept in the struct's accessor table for ``arch``, keyed
    by name tuple, so hot traversal loops compile each run once.
    """
    return accessor_table(spec, arch).runs[names]


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

    __slots__ = ("mem", "address", "spec", "arch", "_table", "_fields")

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
        table = self._table = accessor_table(spec, arch)
        self._fields = table.fields

    def field_address(self, name: str) -> int:
        """Absolute address of a member."""
        return self.address + self.spec.layout(self.arch).offsets[name]

    def get(self, name: str) -> FieldValue:
        """Load a member (pointer members load as integer addresses)."""
        try:
            offset, size, decode, _ = self._fields[name]
        except KeyError:
            raise self._not_loadable(name, "load") from None
        return decode(self.mem.load(self.address + offset, size))

    def set(self, name: str, value: FieldValue) -> None:
        """Store a member."""
        try:
            offset, _, _, encode = self._fields[name]
        except KeyError:
            raise self._not_loadable(name, "store") from None
        self.mem.store(self.address + offset, encode(value))

    def element(self, name: str, index: int) -> FieldValue:
        """Load one element of an array member."""
        entry = self._table.elements.get(name)
        if entry is None:
            self.spec.field(name)  # an unknown member raises here
            raise XdrError(f"field {name!r} is not an array")
        offset, stride, count, size, decode, element = entry
        if not 0 <= index < count:
            raise XdrError(f"array index {index!r} out of range")
        if decode is None:
            raise XdrError(f"cannot load aggregate field of type {element!r}")
        return decode(
            self.mem.load(self.address + offset + index * stride, size)
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
        plan = self._table.runs[names]
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

    def _not_loadable(self, name: str, verb: str) -> XdrError:
        """The error for a member missing from the accessor table."""
        spec = self.spec.field(name).spec  # an unknown member raises here
        return XdrError(f"cannot {verb} aggregate field of type {spec!r}")
