"""Property-based tests for struct layout invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xdr.arch import ALPHA64, SPARC32, X86_64
from repro.xdr.raw import wire_plan
from repro.xdr.types import (
    ArrayType,
    Field,
    OpaqueType,
    PointerType,
    ScalarKind,
    ScalarType,
    StructType,
)
from tests.xdr.test_types import wire_size

ARCHES = [SPARC32, X86_64, ALPHA64]

field_specs = st.one_of(
    st.sampled_from(list(ScalarKind)).map(ScalarType),
    st.integers(min_value=1, max_value=32).map(OpaqueType),
    st.just(PointerType("t")),
    st.builds(
        ArrayType,
        st.sampled_from(list(ScalarKind)).map(ScalarType),
        st.integers(min_value=1, max_value=4),
    ),
)

structs = st.builds(
    lambda specs: StructType(
        "s", [Field(f"f{i}", spec) for i, spec in enumerate(specs)]
    ),
    st.lists(field_specs, min_size=1, max_size=8),
)


class TestLayoutInvariants:
    @settings(max_examples=80)
    @given(structs, st.sampled_from(ARCHES))
    def test_fields_do_not_overlap(self, spec, arch):
        layout = spec.layout(arch)
        spans = sorted(
            (layout.offsets[field.name],
             layout.offsets[field.name] + field.spec.sizeof(arch))
            for field in spec.fields
        )
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    @settings(max_examples=80)
    @given(structs, st.sampled_from(ARCHES))
    def test_fields_aligned(self, spec, arch):
        layout = spec.layout(arch)
        for field in spec.fields:
            alignment = field.spec.alignment(arch)
            assert layout.offsets[field.name] % alignment == 0

    @settings(max_examples=80)
    @given(structs, st.sampled_from(ARCHES))
    def test_size_holds_all_fields_and_is_padded(self, spec, arch):
        layout = spec.layout(arch)
        for field in spec.fields:
            end = layout.offsets[field.name] + field.spec.sizeof(arch)
            assert end <= layout.size
        assert layout.size % layout.alignment == 0

    @settings(max_examples=80)
    @given(structs, st.sampled_from(ARCHES))
    def test_pointer_fields_within_struct(self, spec, arch):
        for offset in wire_plan(spec, arch).pointer_offsets:
            assert 0 <= offset
            assert offset + arch.pointer_size <= spec.sizeof(arch)

    @settings(max_examples=40)
    @given(structs)
    def test_canonical_size_is_architecture_free(self, spec):
        # The canonical form of a zeroed datum (each pointer as its
        # 4-byte NULL marker) has one size on every architecture, at
        # least 4 bytes per field.
        sizes = {wire_size(spec, arch) for arch in ARCHES}
        assert len(sizes) == 1
        assert sizes.pop() >= 4 * len(spec.fields)
