"""Data type specifiers and per-architecture layout.

A :class:`TypeSpec` describes the *logical* type of heap data; its
in-memory representation (size, alignment, field offsets, byte order)
is computed per :class:`~repro.xdr.arch.Architecture`.  This split is
what lets two sites with different CPUs share the same logical data:
both resolve the same type id, each lays it out natively, and the
canonical XDR form bridges them.

Pointers are first-class field types.  In memory a pointer is an
unsigned integer of the architecture's pointer width; on the wire it is
a *long pointer* (or NULL), but that encoding belongs to the transfer
layer (:mod:`repro.xdr.raw` takes pointer hooks), because only the RPC
runtime knows how to swizzle.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.xdr.arch import Architecture
from repro.xdr.errors import XdrError


class ScalarKind(enum.Enum):
    """Primitive machine scalars; value = (struct code, size, signed)."""

    INT8 = ("b", 1, True)
    UINT8 = ("B", 1, False)
    INT16 = ("h", 2, True)
    UINT16 = ("H", 2, False)
    INT32 = ("i", 4, True)
    UINT32 = ("I", 4, False)
    INT64 = ("q", 8, True)
    UINT64 = ("Q", 8, False)
    FLOAT32 = ("f", 4, False)
    FLOAT64 = ("d", 8, False)

    @property
    def struct_code(self) -> str:
        """Format character for :mod:`struct`."""
        return self.value[0]

    @property
    def size(self) -> int:
        """Width in bytes."""
        return self.value[1]

    @property
    def is_float(self) -> bool:
        """Whether the scalar is a floating-point type."""
        return self in (ScalarKind.FLOAT32, ScalarKind.FLOAT64)


class TypeSpec:
    """Base class for all data type specifiers."""

    def sizeof(self, arch: Architecture) -> int:
        """In-memory size on ``arch``, including padding."""
        raise NotImplementedError

    def alignment(self, arch: Architecture) -> int:
        """In-memory alignment requirement on ``arch``."""
        raise NotImplementedError


@dataclass(frozen=True)
class ScalarType(TypeSpec):
    """A primitive scalar."""

    kind: ScalarKind

    def sizeof(self, arch: Architecture) -> int:
        return self.kind.size

    def alignment(self, arch: Architecture) -> int:
        return arch.align_of(self.kind.size)

    def pack_raw(self, value: Union[int, float], arch: Architecture) -> bytes:
        """Native in-memory bytes of ``value`` on ``arch``."""
        prefix = ">" if arch.byteorder == "big" else "<"
        try:
            return struct.pack(prefix + self.kind.struct_code, value)
        except struct.error as exc:
            raise XdrError(f"cannot pack {value!r} as {self.kind}") from exc

    def unpack_raw(
        self, data: bytes, arch: Architecture
    ) -> Union[int, float]:
        """Decode native in-memory bytes from ``arch``."""
        prefix = ">" if arch.byteorder == "big" else "<"
        try:
            return struct.unpack(prefix + self.kind.struct_code, data)[0]
        except struct.error as exc:
            raise XdrError(f"cannot unpack {data!r} as {self.kind}") from exc


@dataclass(frozen=True)
class OpaqueType(TypeSpec):
    """``n`` uninterpreted bytes (XDR fixed-length opaque)."""

    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise XdrError(f"bad opaque length {self.length!r}")

    def sizeof(self, arch: Architecture) -> int:
        return self.length

    def alignment(self, arch: Architecture) -> int:
        return 1


@dataclass(frozen=True)
class PointerType(TypeSpec):
    """A pointer to heap data of type ``target_type_id``.

    The target is named by id, not by spec, so recursive types (list
    nodes, tree nodes) are expressible; the id resolves through the
    :class:`~repro.xdr.registry.TypeRegistry`.
    """

    target_type_id: str

    def sizeof(self, arch: Architecture) -> int:
        return arch.pointer_size

    def alignment(self, arch: Architecture) -> int:
        return arch.align_of(arch.pointer_size)


@dataclass(frozen=True)
class ArrayType(TypeSpec):
    """A fixed-length array of homogeneous elements."""

    element: TypeSpec
    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise XdrError(f"bad array count {self.count!r}")

    def stride(self, arch: Architecture) -> int:
        """Distance between consecutive elements."""
        size = self.element.sizeof(arch)
        return _round_up(size, self.element.alignment(arch))

    def sizeof(self, arch: Architecture) -> int:
        return self.stride(arch) * self.count

    def alignment(self, arch: Architecture) -> int:
        return self.element.alignment(arch)


@dataclass(frozen=True)
class Field:
    """One named member of a struct."""

    name: str
    spec: TypeSpec


class EnumType(TypeSpec):
    """A named integer enumeration (XDR ``enum``).

    In memory an enum is a 32-bit signed integer; on the wire it is a
    validated int32 — a value outside the declared members is a type
    error, exactly as RFC 1014 prescribes.
    """

    def __init__(self, name: str, members: Dict[str, int]) -> None:
        if not members:
            raise XdrError(f"enum {name!r} has no members")
        values = list(members.values())
        if len(set(values)) != len(values):
            raise XdrError(f"enum {name!r} has duplicate values")
        self.name = name
        self.members = dict(members)
        self._names_by_value = {v: k for k, v in members.items()}

    def value_of(self, member: str) -> int:
        """The integer value of a member name."""
        try:
            return self.members[member]
        except KeyError:
            raise XdrError(
                f"enum {self.name!r} has no member {member!r}"
            ) from None

    def name_of(self, value: int) -> str:
        """The member name of an integer value."""
        try:
            return self._names_by_value[value]
        except KeyError:
            raise XdrError(
                f"{value!r} is not a member of enum {self.name!r}"
            ) from None

    def is_valid(self, value: int) -> bool:
        """Whether ``value`` names a member."""
        return value in self._names_by_value

    def sizeof(self, arch: Architecture) -> int:
        return 4

    def alignment(self, arch: Architecture) -> int:
        return arch.align_of(4)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EnumType)
            and self.name == other.name
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.name, tuple(sorted(self.members.items()))))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EnumType({self.name!r})"


class UnionType(TypeSpec):
    """A discriminated union (XDR ``union ... switch``).

    In memory: a 32-bit discriminant followed by storage big enough
    for the largest arm (C-style tagged union).  The discriminant must
    be a member value of ``discriminant`` (an :class:`EnumType`).

    Arms must be pointer-free: the active arm — and therefore where
    any pointers would live — depends on the data, but transfer-time
    pointer discovery (closure walking, swizzling) requires static
    layout.  The constructor enforces this; put the pointer next to
    the union, not inside it.
    """

    def __init__(
        self,
        name: str,
        discriminant: EnumType,
        arms: Dict[str, TypeSpec],
    ) -> None:
        if not arms:
            raise XdrError(f"union {name!r} has no arms")
        for member in arms:
            discriminant.value_of(member)  # validates membership
        missing = set(discriminant.members) - set(arms)
        if missing:
            raise XdrError(
                f"union {name!r} lacks arms for {sorted(missing)}"
            )
        self.name = name
        self.discriminant = discriminant
        self.arms = dict(arms)
        for member, spec in arms.items():
            if _spec_has_pointers(spec):
                raise XdrError(
                    f"union {name!r} arm {member!r} contains pointers; "
                    "union arms must be pointer-free"
                )

    def arm_for(self, value: int) -> TypeSpec:
        """The arm spec selected by a discriminant value."""
        return self.arms[self.discriminant.name_of(value)]

    def body_offset(self, arch: Architecture) -> int:
        """Offset of the arm storage after the discriminant."""
        return _round_up(4, self.alignment(arch))

    def sizeof(self, arch: Architecture) -> int:
        body = max(spec.sizeof(arch) for spec in self.arms.values())
        return _round_up(
            self.body_offset(arch) + body, self.alignment(arch)
        )

    def alignment(self, arch: Architecture) -> int:
        return max(
            arch.align_of(4),
            max(spec.alignment(arch) for spec in self.arms.values()),
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UnionType)
            and self.name == other.name
            and self.discriminant == other.discriminant
            and self.arms == other.arms
        )

    def __hash__(self) -> int:
        return hash((self.name, self.discriminant))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UnionType({self.name!r})"


def _spec_has_pointers(spec: TypeSpec) -> bool:
    if isinstance(spec, PointerType):
        return True
    if isinstance(spec, ArrayType):
        return _spec_has_pointers(spec.element)
    if isinstance(spec, StructType):
        return any(
            _spec_has_pointers(field.spec) for field in spec.fields
        )
    if isinstance(spec, UnionType):
        return False  # enforced pointer-free
    return False


class StructType(TypeSpec):
    """A record with natural (C-style) per-architecture layout."""

    def __init__(self, name: str, fields: Sequence[Field]) -> None:
        if not fields:
            raise XdrError(f"struct {name!r} has no fields")
        seen = set()
        for field in fields:
            if field.name in seen:
                raise XdrError(
                    f"struct {name!r} has duplicate field {field.name!r}"
                )
            seen.add(field.name)
        self.name = name
        self.fields: Tuple[Field, ...] = tuple(fields)
        self._fields_by_name = {field.name: field for field in fields}
        self._layouts: Dict[str, "StructLayout"] = {}
        #: Architecture name -> compiled field accessors
        #: (:func:`repro.xdr.view.accessor_table`).
        self._accessors: Dict[str, Any] = {}

    def layout(self, arch: Architecture) -> "StructLayout":
        """Field offsets, size and alignment on ``arch`` (memoised)."""
        cached = self._layouts.get(arch.name)
        if cached is None:
            cached = StructLayout.compute(self, arch)
            self._layouts[arch.name] = cached
        return cached

    def sizeof(self, arch: Architecture) -> int:
        return self.layout(arch).size

    def alignment(self, arch: Architecture) -> int:
        return self.layout(arch).alignment

    def field(self, name: str) -> Field:
        """Look up a member by name."""
        found = self._fields_by_name.get(name)
        if found is None:
            raise XdrError(f"struct {self.name!r} has no field {name!r}")
        return found

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StructType)
            and self.name == other.name
            and self.fields == other.fields
        )

    def __hash__(self) -> int:
        return hash((self.name, self.fields))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(field.name for field in self.fields)
        return f"StructType({self.name!r}: {names})"


@dataclass(frozen=True)
class StructLayout:
    """Computed layout of a struct on one architecture."""

    size: int
    alignment: int
    offsets: "Dict[str, int]"

    @staticmethod
    def compute(spec: StructType, arch: Architecture) -> "StructLayout":
        """Natural C layout: align each field, pad the tail."""
        offsets: Dict[str, int] = {}
        cursor = 0
        alignment = 1
        for field in spec.fields:
            field_align = field.spec.alignment(arch)
            alignment = max(alignment, field_align)
            cursor = _round_up(cursor, field_align)
            offsets[field.name] = cursor
            cursor += field.spec.sizeof(arch)
        return StructLayout(
            size=_round_up(cursor, alignment),
            alignment=alignment,
            offsets=offsets,
        )


def _round_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


# Convenience singletons mirroring <stdint.h>.
int8 = ScalarType(ScalarKind.INT8)
uint8 = ScalarType(ScalarKind.UINT8)
int16 = ScalarType(ScalarKind.INT16)
uint16 = ScalarType(ScalarKind.UINT16)
int32 = ScalarType(ScalarKind.INT32)
uint32 = ScalarType(ScalarKind.UINT32)
int64 = ScalarType(ScalarKind.INT64)
uint64 = ScalarType(ScalarKind.UINT64)
float32 = ScalarType(ScalarKind.FLOAT32)
float64 = ScalarType(ScalarKind.FLOAT64)

ScalarValue = Union[int, float]
FieldPath = List[str]
