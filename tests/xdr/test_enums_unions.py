"""Tests for XDR enums and discriminated unions."""

import pytest

from repro.memory.address_space import AddressSpace
from repro.rpc import marshal
from repro.rpc.errors import MarshalError
from repro.xdr.arch import SPARC32, X86_64
from repro.xdr.errors import XdrError
from repro.xdr.raw import RawCodec, wire_plan
from repro.xdr.stream import XdrDecoder, XdrEncoder
from repro.xdr.types import (
    EnumType,
    Field,
    OpaqueType,
    PointerType,
    StructType,
    UnionType,
    float64,
    int32,
)
from tests.xdr.test_registry import spec_bytes, spec_from_wire

COLOR = EnumType("color", {"RED": 0, "GREEN": 1, "BLUE": 2})
SHAPE = UnionType(
    "shape",
    COLOR,
    {"RED": int32, "GREEN": float64, "BLUE": OpaqueType(4)},
)


class TestEnumType:
    def test_members(self):
        assert COLOR.value_of("GREEN") == 1
        assert COLOR.name_of(2) == "BLUE"
        assert COLOR.is_valid(0) and not COLOR.is_valid(7)

    def test_unknown_member_rejected(self):
        with pytest.raises(XdrError):
            COLOR.value_of("MAUVE")
        with pytest.raises(XdrError):
            COLOR.name_of(9)

    def test_layout(self):
        assert COLOR.sizeof(SPARC32) == 4
        assert COLOR.alignment(X86_64) == 4
        assert wire_plan(COLOR, X86_64).flat.wire(0).size == 4

    def test_empty_enum_rejected(self):
        with pytest.raises(XdrError):
            EnumType("e", {})

    def test_duplicate_values_rejected(self):
        with pytest.raises(XdrError):
            EnumType("e", {"A": 1, "B": 1})

    def test_equality(self):
        assert COLOR == EnumType("color", {"RED": 0, "GREEN": 1,
                                           "BLUE": 2})
        assert COLOR != EnumType("color", {"RED": 0})


class TestUnionType:
    def test_layout_holds_largest_arm(self):
        # 4-byte discriminant padded to 8, + 8-byte double = 16.
        assert SHAPE.sizeof(SPARC32) == 16
        assert SHAPE.alignment(SPARC32) == 8

    def test_arm_lookup(self):
        assert SHAPE.arm_for(1) is float64

    def test_missing_arm_rejected(self):
        with pytest.raises(XdrError):
            UnionType("u", COLOR, {"RED": int32})

    def test_arm_for_nonmember_rejected(self):
        with pytest.raises(XdrError):
            UnionType("u", COLOR, {"RED": int32, "GREEN": int32,
                                   "BLUE": int32, "MAUVE": int32})

    def test_pointer_arm_rejected(self):
        with pytest.raises(XdrError):
            UnionType("u", COLOR, {
                "RED": PointerType("t"),
                "GREEN": int32,
                "BLUE": int32,
            })

    def test_pointer_in_nested_arm_rejected(self):
        nested = StructType("n", [Field("p", PointerType("t"))])
        with pytest.raises(XdrError):
            UnionType("u", COLOR, {
                "RED": nested, "GREEN": int32, "BLUE": int32,
            })

    def test_no_pointer_fields_reported(self):
        assert wire_plan(SHAPE, SPARC32).pointer_offsets == ()


class TestWireForm:
    def test_enum_spec_round_trip(self):
        assert spec_from_wire(spec_bytes(COLOR)) == COLOR

    def test_union_spec_round_trip(self):
        assert spec_from_wire(spec_bytes(SHAPE)) == SHAPE

    def test_struct_with_enum_round_trip(self):
        spec = StructType("painted", [
            Field("c", COLOR), Field("v", int32),
        ])
        assert spec_from_wire(spec_bytes(spec)) == spec


class TestRawCodec:
    @pytest.mark.parametrize("src,dst", [(SPARC32, X86_64),
                                         (X86_64, SPARC32)])
    def test_union_converts_across_architectures(self, src, dst):
        src_space, dst_space = AddressSpace("s"), AddressSpace("d")
        src_codec = RawCodec(src_space, src)
        dst_codec = RawCodec(dst_space, dst)
        src_address = src_space.map_region(1)
        dst_address = dst_space.map_region(1)
        # write GREEN + 2.5 into source memory
        src_space.write_raw(
            src_address, (1).to_bytes(4, src.byteorder, signed=True)
        )
        src_space.write_raw(
            src_address + SHAPE.body_offset(src),
            float64.pack_raw(2.5, src),
        )
        encoder = XdrEncoder()
        src_codec.encode(src_address, SHAPE, encoder,
                         lambda p, t: None)
        decoder = XdrDecoder(encoder.getvalue())
        dst_codec.decode(decoder, dst_address, SHAPE, lambda t: 0)
        decoder.expect_done()
        raw = dst_space.read_raw(dst_address, 4)
        assert int.from_bytes(raw, dst.byteorder, signed=True) == 1
        body = dst_space.read_raw(
            dst_address + SHAPE.body_offset(dst), 8
        )
        assert float64.unpack_raw(body, dst) == 2.5

    def test_invalid_discriminant_rejected_on_encode(self):
        space = AddressSpace("s")
        codec = RawCodec(space, SPARC32)
        address = space.map_region(1)
        space.write_raw(address, (9).to_bytes(4, "big"))
        with pytest.raises(XdrError):
            codec.encode(address, SHAPE, XdrEncoder(),
                         lambda p, t: None)

    def test_invalid_enum_value_rejected_on_decode(self):
        space = AddressSpace("s")
        codec = RawCodec(space, SPARC32)
        address = space.map_region(1)
        encoder = XdrEncoder()
        encoder.pack_int32(9)
        with pytest.raises(XdrError):
            codec.decode(XdrDecoder(encoder.getvalue()), address,
                         COLOR, lambda t: 0)


class TestMarshalling:
    def test_enum_by_name_and_value(self):
        for given in ("GREEN", 1):
            encoder = XdrEncoder()
            marshal.pack_value(encoder, COLOR, given)
            assert marshal.unpack_value(
                XdrDecoder(encoder.getvalue()), COLOR
            ) == "GREEN"

    def test_enum_invalid_value_rejected(self):
        with pytest.raises(MarshalError):
            marshal.pack_value(XdrEncoder(), COLOR, 9)
        with pytest.raises(MarshalError):
            marshal.pack_value(XdrEncoder(), COLOR, True)

    def test_union_round_trip(self):
        encoder = XdrEncoder()
        marshal.pack_value(
            encoder, SHAPE, {"arm": "GREEN", "value": 0.5}
        )
        out = marshal.unpack_value(XdrDecoder(encoder.getvalue()), SHAPE)
        assert out == {"arm": "GREEN", "value": 0.5}

    def test_union_wrong_shape_rejected(self):
        with pytest.raises(MarshalError):
            marshal.pack_value(XdrEncoder(), SHAPE, {"value": 1})

    def test_union_as_rpc_argument(self, smart_pair):
        from repro.rpc.interface import InterfaceDef, Param, ProcedureDef
        from repro.rpc.stubgen import ClientStub, bind_server

        interface = InterfaceDef("shapes", [
            ProcedureDef(
                "describe", [Param("s", SHAPE)], returns=COLOR
            ),
        ])

        def describe(ctx, shape):
            return shape["arm"]

        bind_server(smart_pair.b, interface, {"describe": describe})
        stub = ClientStub(smart_pair.a, interface, "B")
        with smart_pair.a.session() as session:
            assert stub.describe(
                session, {"arm": "BLUE", "value": b"wxyz"}
            ) == "BLUE"


class TestStructView:
    def test_enum_field_access(self, smart_pair):
        runtime = smart_pair.a
        painted = StructType("painted", [
            Field("c", COLOR), Field("v", int32),
        ])
        runtime.resolver.register("painted", painted)
        address = runtime.malloc("painted")
        view = runtime.struct_view(address, painted)
        view.set("c", "BLUE")
        assert view.get("c") == 2
        view.set("c", 0)
        assert view.get("c") == 0

    def test_enum_field_rejects_nonmember(self, smart_pair):
        runtime = smart_pair.a
        painted = StructType("painted2", [Field("c", COLOR)])
        runtime.resolver.register("painted2", painted)
        address = runtime.malloc("painted2")
        view = runtime.struct_view(address, painted)
        with pytest.raises(XdrError):
            view.set("c", 9)


class TestIdlEnums:
    def test_enum_declaration(self):
        from repro.rpc.idl import parse_idl

        document = parse_idl("""
        enum color { RED = 0, GREEN = 1, BLUE = 2 };
        struct painted { color c; int32 v; };
        """)
        assert document.enum("color").value_of("BLUE") == 2
        assert document.struct("painted").field("c").spec == COLOR

    def test_enum_as_parameter_type(self):
        from repro.rpc.idl import parse_idl

        document = parse_idl("""
        enum mode { FAST = 1, SAFE = 2 };
        interface svc { int32 run(mode m); };
        """)
        procedure = document.interface("svc").procedure("run")
        assert isinstance(procedure.params[0].spec, EnumType)

    def test_duplicate_member_rejected(self):
        from repro.rpc.idl import IdlError, parse_idl

        with pytest.raises(IdlError):
            parse_idl("enum e { A = 0, A = 1 };")

    def test_negative_values_allowed(self):
        from repro.rpc.idl import parse_idl

        document = parse_idl("enum sign { NEG = -1, POS = 1 };")
        assert document.enum("sign").value_of("NEG") == -1
