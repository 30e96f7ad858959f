"""Property-based tests for the XDR canonical stream and type specs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xdr.stream import XdrDecoder, XdrEncoder
from repro.xdr.types import (
    ArrayType,
    Field,
    OpaqueType,
    PointerType,
    ScalarKind,
    ScalarType,
    StructType,
)
from tests.xdr.test_registry import spec_bytes, spec_from_wire

uint32s = st.integers(min_value=0, max_value=2**32 - 1)
int32s = st.integers(min_value=-(2**31), max_value=2**31 - 1)
uint64s = st.integers(min_value=0, max_value=2**64 - 1)
int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)
blobs = st.binary(max_size=200)
texts = st.text(max_size=80)


class TestStreamRoundTrips:
    @given(uint32s)
    def test_uint32(self, value):
        encoder = XdrEncoder()
        encoder.pack_uint32(value)
        assert XdrDecoder(encoder.getvalue()).unpack_uint32() == value

    @given(int32s)
    def test_int32(self, value):
        encoder = XdrEncoder()
        encoder.pack_int32(value)
        assert XdrDecoder(encoder.getvalue()).unpack_int32() == value

    @given(uint64s)
    def test_uint64(self, value):
        encoder = XdrEncoder()
        encoder.pack_uint64(value)
        assert XdrDecoder(encoder.getvalue()).unpack_uint64() == value

    @given(int64s)
    def test_int64(self, value):
        encoder = XdrEncoder()
        encoder.pack_int64(value)
        assert XdrDecoder(encoder.getvalue()).unpack_int64() == value

    @given(blobs)
    def test_opaque(self, data):
        encoder = XdrEncoder()
        encoder.pack_opaque(data)
        decoder = XdrDecoder(encoder.getvalue())
        assert decoder.unpack_opaque() == data
        decoder.expect_done()

    @given(texts)
    def test_string(self, text):
        encoder = XdrEncoder()
        encoder.pack_string(text)
        assert XdrDecoder(encoder.getvalue()).unpack_string() == text

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_double(self, value):
        encoder = XdrEncoder()
        encoder.pack_double(value)
        assert XdrDecoder(encoder.getvalue()).unpack_double() == value

    @given(st.lists(st.tuples(uint32s, blobs), max_size=20))
    def test_interleaved_sequence(self, items):
        encoder = XdrEncoder()
        for number, blob in items:
            encoder.pack_uint32(number)
            encoder.pack_opaque(blob)
        decoder = XdrDecoder(encoder.getvalue())
        for number, blob in items:
            assert decoder.unpack_uint32() == number
            assert decoder.unpack_opaque() == blob
        decoder.expect_done()

    @given(blobs)
    def test_stream_always_four_byte_aligned(self, data):
        encoder = XdrEncoder()
        encoder.pack_opaque(data)
        assert len(encoder.getvalue()) % 4 == 0


identifiers = st.text(
    alphabet=st.sampled_from("abcdefghij_"), min_size=1, max_size=8
)


def type_specs(max_depth=3):
    scalars = st.sampled_from(list(ScalarKind)).map(ScalarType)
    opaques = st.integers(min_value=1, max_value=64).map(OpaqueType)
    pointers = identifiers.map(PointerType)
    base = st.one_of(scalars, opaques, pointers)

    def extend(children):
        arrays = st.builds(
            ArrayType,
            children,
            st.integers(min_value=1, max_value=5),
        )
        structs = st.builds(
            lambda name, specs: StructType(
                name,
                [Field(f"f{i}", spec) for i, spec in enumerate(specs)],
            ),
            identifiers,
            st.lists(children, min_size=1, max_size=4),
        )
        return st.one_of(arrays, structs)

    return st.recursive(base, extend, max_leaves=8)


class TestSpecWireForm:
    @settings(max_examples=60)
    @given(type_specs())
    def test_any_spec_round_trips(self, spec):
        assert spec_from_wire(spec_bytes(spec)) == spec
