"""Tests for the type registry and self-describing spec encoding."""

import pytest

from repro.xdr.errors import XdrError
from repro.xdr.registry import TypeRegistry, decode_spec, encode_spec
from repro.xdr.stream import XdrDecoder, XdrEncoder
from repro.xdr.types import (
    ArrayType,
    Field,
    OpaqueType,
    PointerType,
    ScalarKind,
    ScalarType,
    StructType,
    int32,
    uint64,
)


def spec_bytes(spec):
    """One spec's canonical wire form, as the name server ships it."""
    encoder = XdrEncoder()
    encode_spec(spec, encoder)
    return encoder.getvalue()


def spec_from_wire(data):
    """Decode one spec that must fill ``data`` exactly."""
    decoder = XdrDecoder(data)
    spec = decode_spec(decoder)
    decoder.expect_done()
    return spec


class TestRegistry:
    def test_register_and_resolve(self):
        registry = TypeRegistry()
        registry.register("i", int32)
        assert registry.resolve("i") is int32

    def test_unknown_id_raises(self):
        with pytest.raises(XdrError):
            TypeRegistry().resolve("nope")

    def test_reregister_same_definition_idempotent(self):
        registry = TypeRegistry()
        spec = StructType("s", [Field("v", int32)])
        registry.register("s", spec)
        registry.register("s", StructType("s", [Field("v", int32)]))

    def test_rebind_different_definition_rejected(self):
        registry = TypeRegistry()
        registry.register("s", int32)
        with pytest.raises(XdrError):
            registry.register("s", uint64)

    def test_knows_and_type_ids(self):
        registry = TypeRegistry()
        registry.register("b", int32)
        registry.register("a", uint64)
        assert registry.knows("a") and not registry.knows("c")
        assert registry.type_ids == ["a", "b"]


class TestSpecWireForm:
    @pytest.mark.parametrize("spec", [
        int32,
        uint64,
        ScalarType(ScalarKind.FLOAT32),
        OpaqueType(12),
        PointerType("target"),
        ArrayType(int32, 7),
        ArrayType(PointerType("t"), 2),
        StructType("node", [
            Field("next", PointerType("node")),
            Field("key", uint64),
            Field("value", OpaqueType(16)),
        ]),
        StructType("outer", [
            Field("inner", StructType("inner", [Field("v", int32)])),
            Field("items", ArrayType(OpaqueType(4), 3)),
        ]),
    ])
    def test_round_trip(self, spec):
        assert spec_from_wire(spec_bytes(spec)) == spec

    def test_unknown_tag_rejected(self):
        encoder = XdrEncoder()
        encoder.pack_uint32(99)
        with pytest.raises(XdrError):
            spec_from_wire(encoder.getvalue())

    def test_unknown_scalar_kind_rejected(self):
        encoder = XdrEncoder()
        encoder.pack_uint32(0)  # scalar tag
        encoder.pack_string("NOT_A_KIND")
        with pytest.raises(XdrError):
            spec_from_wire(encoder.getvalue())

    def test_trailing_bytes_rejected(self):
        data = spec_bytes(int32) + b"\x00\x00\x00\x00"
        with pytest.raises(XdrError):
            spec_from_wire(data)
