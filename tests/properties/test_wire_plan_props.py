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
from repro.smartrpc.cache import ISOLATED, PACKED, SINGLE_HOME
from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.long_pointer import LongPointer, read_pool_head
from repro.smartrpc.policy import make_policy
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
from tests.smartrpc.reference_apply import generic_apply_batch
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

STRATEGIES = (SINGLE_HOME, ISOLATED, PACKED)
NODE_TYPE_ID = "node"


def links(k: int, payload) -> StructType:
    """A node of ``k`` pointers to its own type after a pointer-free
    payload: the list (``k`` = 1) and tree (``k`` = 2) shapes."""
    return _struct(
        [payload] + [PointerType(NODE_TYPE_ID) for _ in range(k)]
    )


class Worlds:
    """A home A and two identical fresh callees, one per implementation."""

    def __init__(self, spec, strategy=SINGLE_HOME, nodes=None) -> None:
        policy = make_policy("paper", allocation_strategy=strategy)
        self.plan = SmartPair(Network(), policy)
        self.ladder = SmartPair(Network(), policy)
        for pair in (self.plan, self.ladder):
            for runtime in (pair.a, pair.b):
                runtime.resolver.register("datum", spec)
                runtime.resolver.register(LEAF_TYPE_ID, int32)
                if nodes is not None:
                    runtime.resolver.register(NODE_TYPE_ID, nodes)


def cache_image(runtime, state):
    """Everything a fill leaves behind at the callee, comparable: the
    rows with their page numbers and offsets, every page's bytes,
    protection and seal, the relayed modified data, the counters and
    both ledgers."""
    table = sorted(
        (
            tuple(entry.pointer),
            entry.local_address,
            entry.page_number,
            entry.offset,
            entry.size,
            entry.resident,
            entry.shipped,
            entry.prefetched,
        )
        for entry in state.cache.rows.values()
    )
    pages = {
        number: (
            runtime.space.read_raw(
                number * runtime.space.page_size, runtime.space.page_size
            ),
            page.protection,
            page.closed,
        )
        for number, page in sorted(state.cache.pages.items())
        if page
    }
    relayed = sorted(
        (tuple(entry.pointer), stamp)
        for entry, stamp in state.relayed_dirty.items()
    )
    stats = runtime.stats
    counters = (
        stats.entries_transferred,
        stats.duplicate_entries,
        state.cache.untouched_shipped,
        stats.transfer_ledger.as_dict(),
    )
    return table, pages, relayed, counters, state.transfer_stats.as_dict()


def home_image(runtime, items):
    """The original bytes of every item at its home."""
    return [
        runtime.space.read_raw(
            item.local_address,
            runtime.resolver.resolve(item.pointer.type_id).sizeof(
                runtime.arch
            ),
        )
        for item in items
    ]


def build_datums(home, spec, streams):
    """Three leaves and one ``datum`` per ``(scalars, nulls)`` stream,
    each pointer to a leaf; the leaves and the datums as batch items."""
    leaves = []
    for index in range(3):
        leaf = home.heap.malloc(4, LEAF_TYPE_ID)
        home.space.write_raw(leaf, (index + 7).to_bytes(4, "big"))
        leaves.append(leaf)
    datums = []
    for scalars, nulls in streams:
        words = [
            0 if null else leaves[index % len(leaves)]
            for index, null in enumerate(nulls)
        ]
        address = home.heap.malloc(spec.sizeof(home.arch), "datum")
        decoder = XdrDecoder(interleave(spec, scalars, words))
        ReferenceCodec(home.space, home.arch).decode(
            decoder, address, spec, lambda _target: decoder.unpack_uint32()
        )
        datums.append(Item(LongPointer("A", address, "datum"), address))
    return datums + [
        Item(LongPointer("A", leaf, LEAF_TYPE_ID), leaf) for leaf in leaves
    ]


def pick(items, order):
    return [items[i] for i in order]


def draw_streams(data, spec, count):
    streams = []
    for _ in range(count):
        scalars = XdrEncoder()
        nulls = []
        draw_canonical(data, spec, scalars, nulls)
        streams.append((scalars.getvalue(), nulls))
    return streams


def encode_both(worlds, build):
    """Build the same data at both homes, then encode it through the
    plans and through the ladder; the batches must be the same bytes."""
    batches = []
    for pair, encode in (
        (worlds.plan, transfer.encode_batch),
        (worlds.ladder, reference_encode_batch),
    ):
        home = pair.a
        items = build(home)
        state = home.ensure_smart_session("sess", "A")
        batches.append(encode(home, state, items))
    assert batches[0] == batches[1]
    return items, batches[0]


def applied_alike(worlds, items, batch, demanded):
    """Apply ``batch`` through ``apply_batch`` and through the per-field
    batch function: at the callee on the fill path, at the callee again
    on the coherency path, and at the home on the coherency path (over
    originals zeroed first).  Every step must return the same count and
    leave the same cache (or home) image either way."""
    results = []
    for pair, apply in (
        (worlds.plan, transfer.apply_batch),
        (worlds.ladder, reference_apply_batch),
    ):
        callee, home = pair.b, pair.a
        state = callee.ensure_smart_session("sess", "A")
        steps = [apply(callee, state, batch, False, demanded)]
        steps.append(cache_image(callee, state))
        state.epoch += 1
        steps.append(apply(callee, state, batch, True))
        steps.append(cache_image(callee, state))
        before = home_image(home, items)
        for item, image in zip(items, before):
            home.space.write_raw(item.local_address, bytes(len(image)))
        home_state = home.ensure_smart_session("sess", "A")
        steps.append(apply(home, home_state, batch, True))
        steps.append(home_image(home, items))
        assert steps[-1] == before  # the originals are back
        results.append(steps)
    assert results[0] == results[1]
    return results[0]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=specs(), data=st.data())
def test_batches_match_per_field_batches(spec, data):
    """Runs of mixed types — datums and the leaves their slots name,
    which may arrive later in the same batch — repeats included, under
    every allocation strategy."""
    streams = draw_streams(data, spec, data.draw(st.integers(1, 3)))
    worlds = Worlds(spec, data.draw(st.sampled_from(STRATEGIES)))
    pool = len(streams) + 3
    order = data.draw(
        st.lists(st.integers(0, pool - 1), min_size=1, max_size=8)
    )
    items, batch = encode_both(
        worlds,
        lambda home: pick(build_datums(home, spec, streams), order),
    )
    demanded = {
        item.pointer for item in items if data.draw(st.booleans())
    }
    results = applied_alike(worlds, items, batch, demanded)
    assert results[0] == len(set(order))  # repeats are resident duplicates


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(payload=specs(pointers=False), data=st.data())
def test_linked_batches_match_per_field_batches(payload, data):
    """Nodes of 0–4 pointers to their own type, each pointer NULL or to
    any node, shipped in a drawn order: a target arrives before its
    referrer, after it (a placeholder first) or not at all."""
    k = data.draw(st.integers(0, 4), label="pointer slots")
    spec = links(k, payload)
    count = data.draw(st.integers(1, 12), label="nodes")
    targets = [
        [data.draw(st.integers(-1, count - 1)) for _ in range(k)]
        for _ in range(count)
    ]
    streams = draw_streams(data, payload, count)
    order = data.draw(st.permutations(range(count)))[
        : data.draw(st.integers(1, count))
    ]
    worlds = Worlds(int32, data.draw(st.sampled_from(STRATEGIES)), spec)

    def build(home):
        size = spec.sizeof(home.arch)
        layout = spec.layout(home.arch)
        addresses = [home.heap.malloc(size, NODE_TYPE_ID) for _ in targets]
        codec = ReferenceCodec(home.space, home.arch)
        for address, (scalars, _nulls), row in zip(
            addresses, streams, targets
        ):
            decoder = XdrDecoder(scalars)
            codec.decode(
                decoder, address + layout.offsets["f0"], payload, None
            )
            for j, target in enumerate(row):
                codec.write_pointer(
                    address + layout.offsets[f"f{j + 1}"],
                    addresses[target] if target >= 0 else 0,
                )
        return [
            Item(LongPointer("A", addresses[i], NODE_TYPE_ID), addresses[i])
            for i in order
        ]

    items, batch = encode_both(worlds, build)
    demanded = {items[0].pointer}
    assert applied_alike(worlds, items, batch, demanded)[0] == len(order)


def outcome(apply, runtime, session, batch, overwrite):
    """What applying ``batch`` in a fresh session does: the count or the
    exception's type and text, and the image left behind."""
    state = runtime.ensure_smart_session(session, "A")
    try:
        result = apply(runtime, state, batch, overwrite, None)
    except (SmartRpcError, XdrError) as exc:
        result = (type(exc), str(exc))
    return result, cache_image(runtime, state)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=specs(), data=st.data())
def test_cut_and_forged_batches_fail_alike(spec, data):
    """Every cut of a mixed batch, and every word of it forged into an
    unknown handle or NULL, fails (or lands) as the generic loop did:
    the same exception type and text and the same image left behind."""
    streams = draw_streams(data, spec, data.draw(st.integers(1, 2)))
    worlds = Worlds(spec)
    order = data.draw(
        st.lists(
            st.integers(0, len(streams) + 2), min_size=1, max_size=5
        )
    )
    _items, batch = encode_both(
        worlds,
        lambda home: pick(build_datums(home, spec, streams), order),
    )
    pairs, head = read_pool_head(batch, len(batch))
    trials = [batch[:cut] for cut in range(len(batch))]
    for at in range(head, len(batch) - 3, 4):
        for word in (len(pairs) + 1, 0):
            trials.append(
                batch[:at] + word.to_bytes(4, "big") + batch[at + 4:]
            )
    overwrite = data.draw(st.booleans())
    for n, trial in enumerate(trials):
        session = f"trial {n}"
        assert outcome(
            transfer.apply_batch, worlds.plan.b, session, trial, overwrite
        ) == outcome(
            generic_apply_batch, worlds.ladder.b, session, trial, overwrite
        ), n
