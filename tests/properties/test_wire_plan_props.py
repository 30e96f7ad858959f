"""Differential properties: compiled wire plans against the ladder.

``tests/xdr/reference_codec.py`` holds the recursive per-field codec
the plans replaced.  Over generated type specs and generated values,
on a big-endian 32-bit and a little-endian 64-bit machine:

* decoding one canonical stream through the plan and through the
  ladder leaves the same memory image and calls ``pointer_in`` with
  the same targets in the same order;
* encoding that image back through either yields the same bytes and
  the same ``pointer_out`` calls — and those bytes are the stream the
  image was decoded from.

The batch functions drive the plans without hooks (one ``Struct`` per
datum, picked by which pointers are NULL), so the same specs also go
through ``encode_batch``/``apply_batch`` against the per-field batch
functions, between two real runtimes.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.memory.address_space import AddressSpace
from repro.simnet.network import Network
from repro.smartrpc import transfer
from repro.smartrpc.long_pointer import LongPointer
from repro.xdr.arch import SPARC32, X86_64
from repro.xdr.errors import XdrError
from repro.xdr.raw import RawCodec
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
    UnionType,
    int32,
)
from tests.conftest import SmartPair
from tests.xdr.reference_codec import (
    Item,
    ReferenceCodec,
    reference_apply_batch,
    reference_encode_batch,
)

ARCHES = (SPARC32, X86_64)
LEAF_TYPE_ID = "leaf"

COLOR = EnumType("color", {"RED": 0, "GREEN": 1, "BLUE": -7})


# -- generated specs ----------------------------------------------------------


def _union(arms):
    return UnionType("shape", COLOR, dict(zip(COLOR.members, arms)))


def _struct(specs):
    return StructType(
        "s", [Field(f"f{i}", spec) for i, spec in enumerate(specs)]
    )


def specs(pointers: bool = True):
    """Specs nesting every kind; union arms are pointer-free."""
    leaves = [
        st.sampled_from(list(ScalarKind)).map(ScalarType),
        # 1..3 and 5..7 owe XDR padding, 4 and 8 do not.
        st.integers(min_value=1, max_value=9).map(OpaqueType),
        st.just(COLOR),
    ]
    if pointers:
        leaves.append(st.just(PointerType(LEAF_TYPE_ID)))

    def extend(children):
        nested = [
            st.builds(ArrayType, children, st.integers(1, 4)),
            st.lists(children, min_size=1, max_size=4).map(_struct),
        ]
        if pointers:
            plain = specs(pointers=False)
            nested.append(st.tuples(plain, plain, plain).map(_union))
        return st.one_of(nested)

    return st.recursive(st.one_of(leaves), extend, max_leaves=10)


def test_union_arms_cannot_hold_pointers():
    """Why no generated union has a pointer arm: the type refuses it."""
    with pytest.raises(XdrError):
        _union([PointerType(LEAF_TYPE_ID), int32, int32])


# -- generated values ---------------------------------------------------------

_SCALAR_PACKERS = {
    ScalarKind.FLOAT32: "pack_float",
    ScalarKind.FLOAT64: "pack_double",
    ScalarKind.INT64: "pack_int64",
    ScalarKind.UINT64: "pack_uint64",
    ScalarKind.INT8: "pack_int32",
    ScalarKind.INT16: "pack_int32",
    ScalarKind.INT32: "pack_int32",
}


def draw_canonical(data, spec, encoder, pointers):
    """Append one valid canonical value of ``spec``; list its pointers.

    Pointers are not written: the codec hooks own their wire form.
    ``pointers`` collects one drawn boolean (NULL or not) per pointer.
    """
    if isinstance(spec, ScalarType):
        kind = spec.kind
        if kind.is_float:
            # Exactly representable, so float32 survives its round trip.
            value = data.draw(st.integers(-1024, 1024)) / 8.0
        else:
            bits = 8 * kind.size
            signed = kind.struct_code.islower()
            low = -(1 << bits - 1) if signed else 0
            value = data.draw(st.integers(low, low + (1 << bits) - 1))
        getattr(encoder, _SCALAR_PACKERS.get(kind, "pack_uint32"))(value)
    elif isinstance(spec, OpaqueType):
        encoder.pack_fixed_opaque(
            data.draw(st.binary(min_size=spec.length, max_size=spec.length))
        )
    elif isinstance(spec, PointerType):
        pointers.append(data.draw(st.booleans()))
    elif isinstance(spec, ArrayType):
        for _ in range(spec.count):
            draw_canonical(data, spec.element, encoder, pointers)
    elif isinstance(spec, StructType):
        for field in spec.fields:
            draw_canonical(data, field.spec, encoder, pointers)
    elif isinstance(spec, EnumType):
        encoder.pack_int32(
            data.draw(st.sampled_from(sorted(spec.members.values())))
        )
    else:
        member = data.draw(st.sampled_from(sorted(spec.arms)))
        encoder.pack_int32(spec.discriminant.value_of(member))
        draw_canonical(data, spec.arms[member], encoder, pointers)


def interleave(spec, scalars: bytes, words):
    """The hook-level stream: ``scalars`` with a 4-byte word per pointer."""
    out = XdrEncoder()
    decoder = XdrDecoder(scalars)
    words = iter(words)

    def emit(spec):
        if isinstance(spec, PointerType):
            out.pack_uint32(next(words))
        elif isinstance(spec, ArrayType):
            for _ in range(spec.count):
                emit(spec.element)
        elif isinstance(spec, StructType):
            for field in spec.fields:
                emit(field.spec)
        elif isinstance(spec, UnionType):
            value = decoder.unpack_int32()
            out.pack_int32(value)
            emit(spec.arm_for(value))
        else:
            # A leaf in XDR's 4-byte units: an 8-byte scalar takes two,
            # an opaque pads to a multiple of 4, an enum takes one.
            if isinstance(spec, ScalarType):
                size = max(4, spec.kind.size)
            elif isinstance(spec, OpaqueType):
                size = -(-spec.length // 4) * 4
            else:
                size = 4
            out.pack_fixed_opaque(decoder.unpack_fixed_view(size))

    emit(spec)
    decoder.expect_done()
    return out.getvalue()


# -- the hook-driven codec ----------------------------------------------------


def decode_into_fresh_space(codec_class, arch, spec, stream):
    space = AddressSpace("s")
    codec = codec_class(space, arch)
    pages = -(-spec.sizeof(arch) // space.page_size)
    base = space.map_region(pages)
    decoder = XdrDecoder(stream)
    calls = []

    def pointer_in(target):
        calls.append(target)
        return decoder.unpack_uint32()

    codec.decode(decoder, base, spec, pointer_in)
    decoder.expect_done()
    return codec, base, space.read_raw(base, pages * space.page_size), calls


def encode_from(codec, base, spec):
    encoder = XdrEncoder()
    calls = []

    def pointer_out(value, target):
        calls.append((value, target))
        encoder.pack_uint32(value)

    codec.encode(base, spec, encoder, pointer_out)
    return encoder.getvalue(), calls


@pytest.mark.parametrize("arch", ARCHES, ids=lambda arch: arch.name)
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=specs(), data=st.data())
def test_plan_matches_ladder_through_hooks(arch, spec, data):
    scalars = XdrEncoder()
    nulls = []
    draw_canonical(data, spec, scalars, nulls)
    words = [
        0 if null else data.draw(st.integers(1, 2**32 - 1)) for null in nulls
    ]
    stream = interleave(spec, scalars.getvalue(), words)

    plan, plan_base, plan_image, plan_in = decode_into_fresh_space(
        RawCodec, arch, spec, stream
    )
    ladder, ladder_base, ladder_image, ladder_in = decode_into_fresh_space(
        ReferenceCodec, arch, spec, stream
    )
    assert plan_image == ladder_image
    assert plan_in == ladder_in

    plan_bytes, plan_out = encode_from(plan, plan_base, spec)
    ladder_bytes, ladder_out = encode_from(ladder, ladder_base, spec)
    assert plan_bytes == ladder_bytes == stream
    assert plan_out == ladder_out
    assert [value for value, _ in plan_out] == words


# -- the batch functions ------------------------------------------------------


class Worlds:
    """A home A and two identical fresh callees, one per implementation."""

    def __init__(self, spec) -> None:
        self.plan = SmartPair(Network())
        self.ladder = SmartPair(Network())
        for pair in (self.plan, self.ladder):
            for runtime in (pair.a, pair.b):
                runtime.resolver.register("datum", spec)
                runtime.resolver.register(LEAF_TYPE_ID, int32)


def cache_image(runtime, state):
    """Everything a fill leaves behind at the callee, comparable."""
    table = sorted(
        (
            tuple(entry.pointer),
            entry.local_address,
            entry.size,
            entry.resident,
            entry.shipped,
            entry.prefetched,
        )
        for entry in state.cache.rows.values()
    )
    pages = {
        number: runtime.space.read_raw(
            number * runtime.space.page_size, runtime.space.page_size
        )
        for number, page in sorted(state.cache.pages.items())
        if page
    }
    return table, pages, state.transfer_stats.as_dict()


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=specs(), data=st.data())
def test_batches_match_per_field_batches(spec, data):
    scalars = XdrEncoder()
    nulls = []
    draw_canonical(data, spec, scalars, nulls)
    worlds = Worlds(spec)
    batches = []
    for pair, encode in (
        (worlds.plan, transfer.encode_batch),
        (worlds.ladder, reference_encode_batch),
    ):
        home = pair.a
        leaves = [home.heap.malloc(4, LEAF_TYPE_ID) for _ in range(3)]
        words = [
            0 if null else leaves[index % len(leaves)]
            for index, null in enumerate(nulls)
        ]
        address = home.heap.malloc(spec.sizeof(home.arch), "datum")
        decoder = XdrDecoder(interleave(spec, scalars.getvalue(), words))
        ReferenceCodec(home.space, home.arch).decode(
            decoder, address, spec, lambda _target: decoder.unpack_uint32()
        )
        state = home.ensure_smart_session("sess", "A")
        item = Item(LongPointer("A", address, "datum"), address)
        batches.append(encode(home, state, [item, item]))
    assert batches[0] == batches[1]

    demanded = {LongPointer("A", address, "datum")}
    images = []
    for pair, apply in (
        (worlds.plan, transfer.apply_batch),
        (worlds.ladder, reference_apply_batch),
    ):
        callee = pair.b
        state = callee.ensure_smart_session("sess", "A")
        # The repeated item is a resident duplicate: skipped, not filled.
        assert apply(callee, state, batches[0], False, demanded) == 1
        assert callee.stats.duplicate_entries == 1
        images.append(cache_image(callee, state))
    assert images[0] == images[1]
