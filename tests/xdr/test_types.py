"""Tests for the type system and per-architecture layout."""

import pytest

from repro.memory.address_space import AddressSpace
from repro.xdr.arch import ALPHA64, SPARC32, X86_64, Architecture
from repro.xdr.errors import XdrError
from repro.xdr.raw import RawCodec, wire_plan
from repro.xdr.stream import XdrEncoder
from repro.xdr.types import (
    ArrayType,
    Field,
    OpaqueType,
    PointerType,
    ScalarKind,
    ScalarType,
    StructType,
    float64,
    int8,
    int16,
    int32,
    int64,
    uint32,
)


def wire_size(spec, arch=SPARC32):
    """Bytes of the canonical form the wire plan packs for a zeroed
    datum of ``spec``, each pointer as its 4-byte NULL marker."""
    space = AddressSpace("s")
    base = space.map_region(-(-spec.sizeof(arch) // space.page_size))
    encoder = XdrEncoder()
    RawCodec(space, arch).encode(
        base, spec, encoder, lambda value, target: encoder.pack_uint32(0)
    )
    return len(encoder.getvalue())


class TestArchitecture:
    def test_bad_byteorder_rejected(self):
        with pytest.raises(ValueError):
            Architecture("x", "middle", 4)

    def test_bad_pointer_size_rejected(self):
        with pytest.raises(ValueError):
            Architecture("x", "big", 2)

    def test_align_clamped_to_max(self):
        arch = Architecture("x", "big", 4, max_alignment=4)
        assert arch.align_of(8) == 4
        assert arch.align_of(2) == 2

    def test_known_architectures(self):
        assert SPARC32.pointer_size == 4 and SPARC32.byteorder == "big"
        assert X86_64.pointer_size == 8 and X86_64.byteorder == "little"
        assert ALPHA64.pointer_size == 8


class TestScalars:
    @pytest.mark.parametrize("spec,size", [
        (int8, 1), (int16, 2), (int32, 4), (int64, 8), (float64, 8),
    ])
    def test_sizes(self, spec, size):
        assert spec.sizeof(SPARC32) == size
        assert spec.sizeof(X86_64) == size

    def test_pack_unpack_native(self):
        raw = int32.pack_raw(-42, SPARC32)
        assert raw == (-42).to_bytes(4, "big", signed=True)
        assert int32.unpack_raw(raw, SPARC32) == -42

    def test_endianness_differs(self):
        big = uint32.pack_raw(1, SPARC32)
        little = uint32.pack_raw(1, X86_64)
        assert big == little[::-1]

    def test_pack_out_of_range(self):
        with pytest.raises(XdrError):
            int8.pack_raw(1000, SPARC32)

    def test_canonical_size_minimum_four(self):
        assert wire_size(int8) == 4
        assert wire_size(int64) == 8

    def test_no_pointer_fields(self):
        assert wire_plan(int32, SPARC32).pointer_offsets == ()


class TestOpaque:
    def test_size_and_alignment(self):
        spec = OpaqueType(10)
        assert spec.sizeof(SPARC32) == 10
        assert spec.alignment(SPARC32) == 1

    def test_canonical_padded(self):
        assert wire_size(OpaqueType(5)) == 8

    def test_zero_length_rejected(self):
        with pytest.raises(XdrError):
            OpaqueType(0)


class TestPointer:
    def test_size_follows_architecture(self):
        spec = PointerType("t")
        assert spec.sizeof(SPARC32) == 4
        assert spec.sizeof(X86_64) == 8

    def test_reports_itself_as_pointer_field(self):
        spec = PointerType("t")
        assert wire_plan(spec, SPARC32).pointer_offsets == (0,)


class TestArray:
    def test_stride_and_size(self):
        spec = ArrayType(int32, 5)
        assert spec.stride(SPARC32) == 4
        assert spec.sizeof(SPARC32) == 20

    def test_pointer_fields_per_element(self):
        spec = ArrayType(PointerType("t"), 3)
        assert wire_plan(spec, X86_64).pointer_offsets == (0, 8, 16)

    def test_bad_count_rejected(self):
        with pytest.raises(XdrError):
            ArrayType(int32, 0)

    def test_canonical_size(self):
        assert wire_size(ArrayType(int16, 4)) == 16


class TestStruct:
    def test_tree_node_is_16_bytes_on_sparc(self):
        node = StructType("n", [
            Field("left", PointerType("n")),
            Field("right", PointerType("n")),
            Field("data", OpaqueType(8)),
        ])
        assert node.sizeof(SPARC32) == 16  # the paper's node size
        assert node.sizeof(X86_64) == 24

    def test_natural_padding(self):
        spec = StructType("s", [
            Field("a", int8),
            Field("b", int32),
            Field("c", int8),
        ])
        layout = spec.layout(SPARC32)
        assert layout.offsets == {"a": 0, "b": 4, "c": 8}
        assert layout.size == 12  # tail-padded to alignment 4

    def test_layout_differs_across_architectures(self):
        spec = StructType("s", [
            Field("p", PointerType("s")),
            Field("v", int32),
        ])
        assert spec.layout(SPARC32).size == 8
        assert spec.layout(X86_64).size == 16

    def test_layout_memoised(self):
        spec = StructType("s", [Field("v", int32)])
        assert spec.layout(SPARC32) is spec.layout(SPARC32)

    def test_pointer_fields_with_offsets(self):
        spec = StructType("s", [
            Field("v", int64),
            Field("p", PointerType("s")),
            Field("q", PointerType("s")),
        ])
        assert wire_plan(spec, SPARC32).pointer_offsets == (8, 12)

    def test_nested_struct_pointer_fields(self):
        inner = StructType("inner", [Field("p", PointerType("x"))])
        outer = StructType("outer", [
            Field("v", int32),
            Field("i", inner),
        ])
        assert wire_plan(outer, SPARC32).pointer_offsets == (4,)

    def test_field_lookup(self):
        spec = StructType("s", [Field("v", int32)])
        assert spec.field("v").spec is int32
        with pytest.raises(XdrError):
            spec.field("missing")

    def test_duplicate_field_rejected(self):
        with pytest.raises(XdrError):
            StructType("s", [Field("v", int32), Field("v", int32)])

    def test_empty_struct_rejected(self):
        with pytest.raises(XdrError):
            StructType("s", [])

    def test_equality_by_name_and_fields(self):
        first = StructType("s", [Field("v", int32)])
        second = StructType("s", [Field("v", int32)])
        third = StructType("s", [Field("v", int64)])
        assert first == second
        assert first != third
        assert hash(first) == hash(second)
