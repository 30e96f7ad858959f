"""The data-type specifier database.

Long pointers carry a *data type specifier* — a string id.  The paper
assumes "the system can obtain an actual data structure from a data
type specifier by querying a database that serves as a network name
server."  :class:`TypeRegistry` is that database; the network-reachable
service wrapping it lives in :mod:`repro.namesvc`.

Type specs are self-describing on the wire (``encode_spec`` /
``decode_spec``) so the name server can ship a definition to a site
that has never seen it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.xdr.errors import XdrError
from repro.xdr.stream import XdrDecoder, XdrEncoder
from repro.xdr.types import (
    ArrayType,
    EnumType,
    Field,
    OpaqueType,
    PointerType,
    ScalarKind,
    ScalarType,
    StructType,
    TypeSpec,
    UnionType,
)

_TAG_SCALAR = 0
_TAG_OPAQUE = 1
_TAG_POINTER = 2
_TAG_ARRAY = 3
_TAG_STRUCT = 4
_TAG_ENUM = 5
_TAG_UNION = 6


class TypeRegistry:
    """Maps type ids to :class:`~repro.xdr.types.TypeSpec` objects."""

    def __init__(self) -> None:
        self._specs: Dict[str, TypeSpec] = {}

    def register(self, type_id: str, spec: TypeSpec) -> None:
        """Bind ``type_id`` to ``spec``.

        Re-registering the same definition is idempotent; rebinding an
        id to a *different* definition is an error, because remote sites
        may already have cached the old one.
        """
        existing = self._specs.get(type_id)
        if existing is not None and existing != spec:
            raise XdrError(f"type id {type_id!r} already bound differently")
        self._specs[type_id] = spec

    def resolve(self, type_id: str) -> TypeSpec:
        """Return the spec bound to ``type_id``."""
        try:
            return self._specs[type_id]
        except KeyError:
            raise XdrError(f"unknown type id {type_id!r}") from None

    def knows(self, type_id: str) -> bool:
        """Whether ``type_id`` is bound."""
        return type_id in self._specs

    @property
    def type_ids(self) -> List[str]:
        """All bound ids, sorted."""
        return sorted(self._specs)


# -- wire form of type specs ----------------------------------------------


def encode_spec(spec: TypeSpec, encoder: XdrEncoder) -> None:
    """Append the self-describing canonical form of ``spec``."""
    if isinstance(spec, ScalarType):
        encoder.pack_uint32(_TAG_SCALAR)
        encoder.pack_string(spec.kind.name)
    elif isinstance(spec, OpaqueType):
        encoder.pack_uint32(_TAG_OPAQUE)
        encoder.pack_uint32(spec.length)
    elif isinstance(spec, PointerType):
        encoder.pack_uint32(_TAG_POINTER)
        encoder.pack_string(spec.target_type_id)
    elif isinstance(spec, ArrayType):
        encoder.pack_uint32(_TAG_ARRAY)
        encoder.pack_uint32(spec.count)
        encode_spec(spec.element, encoder)
    elif isinstance(spec, StructType):
        encoder.pack_uint32(_TAG_STRUCT)
        encoder.pack_string(spec.name)
        encoder.pack_uint32(len(spec.fields))
        for field in spec.fields:
            encoder.pack_string(field.name)
            encode_spec(field.spec, encoder)
    elif isinstance(spec, EnumType):
        encoder.pack_uint32(_TAG_ENUM)
        encoder.pack_string(spec.name)
        encoder.pack_uint32(len(spec.members))
        for member, value in sorted(spec.members.items()):
            encoder.pack_string(member)
            encoder.pack_int32(value)
    elif isinstance(spec, UnionType):
        encoder.pack_uint32(_TAG_UNION)
        encoder.pack_string(spec.name)
        encode_spec(spec.discriminant, encoder)
        encoder.pack_uint32(len(spec.arms))
        for member, arm in sorted(spec.arms.items()):
            encoder.pack_string(member)
            encode_spec(arm, encoder)
    else:
        raise XdrError(f"cannot encode type spec {spec!r}")


def decode_spec(decoder: XdrDecoder) -> TypeSpec:
    """Read one self-describing type spec."""
    tag = decoder.unpack_uint32()
    if tag == _TAG_SCALAR:
        name = decoder.unpack_string()
        try:
            kind = ScalarKind[name]
        except KeyError:
            raise XdrError(f"unknown scalar kind {name!r}") from None
        return ScalarType(kind)
    if tag == _TAG_OPAQUE:
        return OpaqueType(decoder.unpack_uint32())
    if tag == _TAG_POINTER:
        return PointerType(decoder.unpack_string())
    if tag == _TAG_ARRAY:
        count = decoder.unpack_uint32()
        return ArrayType(decode_spec(decoder), count)
    if tag == _TAG_STRUCT:
        name = decoder.unpack_string()
        field_count = decoder.unpack_uint32()
        fields = []
        for _ in range(field_count):
            field_name = decoder.unpack_string()
            fields.append(Field(field_name, decode_spec(decoder)))
        return StructType(name, fields)
    if tag == _TAG_ENUM:
        name = decoder.unpack_string()
        member_count = decoder.unpack_uint32()
        members = {}
        for _ in range(member_count):
            member = decoder.unpack_string()
            members[member] = decoder.unpack_int32()
        return EnumType(name, members)
    if tag == _TAG_UNION:
        name = decoder.unpack_string()
        discriminant = decode_spec(decoder)
        if not isinstance(discriminant, EnumType):
            raise XdrError(f"union {name!r} discriminant is not an enum")
        arm_count = decoder.unpack_uint32()
        arms = {}
        for _ in range(arm_count):
            member = decoder.unpack_string()
            arms[member] = decode_spec(decoder)
        return UnionType(name, discriminant, arms)
    raise XdrError(f"unknown type-spec tag {tag!r}")
