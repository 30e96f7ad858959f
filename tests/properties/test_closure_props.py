"""Differential property: the one-pass walk against the two-pass oracle.

A home serves a DATA_REQUEST by walking the closure of the requested
roots and packing each datum as the walk emits it
(``repro.smartrpc.closure``).  ``tests/smartrpc/reference_closure.py``
keeps the two passes it replaced: a walk that lists the items, then an
encoder that reads each of them again.  Over generated home graphs —
shared children, cycles, NULLs, a union-typed node, pointers into a
cached datum of a third space — under budgets 0, small and unbounded,
breadth- and depth-first, with and without hints, both must emit the
same data in the same order into byte-identical batches, and a dead
root, a provisional pointer or an interior pointer must fail both with
the same error and the same text.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simnet.network import Network
from repro.smartrpc.closure import BREADTH_FIRST, DEPTH_FIRST, ClosureWalker
from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.hints import ClosureHints
from repro.smartrpc.long_pointer import PROVISIONAL_BASE, LongPointer
from repro.smartrpc.policy import UNBOUNDED
from repro.xdr.errors import XdrError
from repro.xdr.types import (
    EnumType,
    Field,
    PointerType,
    StructType,
    UnionType,
    int32,
)
from tests.conftest import SmartPair
from tests.smartrpc.reference_closure import reference_data_reply_batch
from tests.xdr.reference_codec import reference_encode_batch

COLOR = EnumType("color", {"RED": 0, "GREEN": 1})
#: Two pointer fields and a scalar: the flat path.
GNODE = StructType("gnode", [
    Field("a", PointerType("gnode")),
    Field("v", int32),
    Field("b", PointerType("unode")),
])
#: A union ahead of its pointer: the hook codec's path.
UNODE = StructType("unode", [
    Field("u", UnionType("u", COLOR, {"RED": int32, "GREEN": int32})),
    Field("next", PointerType("gnode")),
])
TYPES = {"gnode": GNODE, "unode": UNODE}

#: Where a pointer field points: NULL, a node of the graph (by index),
#: the cached third-space datum, or the faults below.
NULL, CACHED = "null", "cached"
PROVISIONAL, INTERIOR = "provisional", "interior"

HINTS = {
    "none": None,
    "b-then-a": {"gnode": ["b", "a"]},
    "a-only": {"gnode": ["a"], "unode": ["next"]},
}


@st.composite
def graphs(draw):
    """Node types, each pointer field's target, roots and a fault."""
    size = draw(st.integers(1, 10))
    kinds = draw(st.lists(
        st.sampled_from(sorted(TYPES)), min_size=size, max_size=size
    ))
    target = st.one_of(
        st.integers(0, size - 1), st.sampled_from([NULL, NULL, CACHED])
    )
    fields = [
        draw(st.lists(target, min_size=2, max_size=2)) for _ in kinds
    ]
    roots = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3))
    fault = draw(st.sampled_from(
        [None, None, None, "dead", PROVISIONAL, INTERIOR]
    ))
    if fault in (PROVISIONAL, INTERIOR):
        node = draw(st.integers(0, size - 1))
        slot = 0 if kinds[node] == "unode" else draw(st.integers(0, 1))
        fields[node][slot] = fault
    return kinds, fields, roots, fault


def build(kinds, fields, roots, fault):
    """The graph at home A; the root addresses a request names."""
    pair = SmartPair(Network())
    home = pair.a
    for type_id, spec in TYPES.items():
        home.resolver.register(type_id, spec)
    state = home.ensure_smart_session("sess", "A")
    cached = state.cache.ensure_entry(
        LongPointer("Z", 0x5000, "gnode")
    ).local_address
    fresh = state.cache.allocate_fresh(
        LongPointer("Z", PROVISIONAL_BASE + 16, "gnode"),
        GNODE.sizeof(home.arch),
    ).local_address
    addresses = [
        home.heap.malloc(TYPES[kind].sizeof(home.arch), kind)
        for kind in kinds
    ]
    for index, (kind, targets) in enumerate(zip(kinds, fields)):
        address = addresses[index]
        offsets = TYPES[kind].layout(home.arch).offsets
        if kind == "gnode":
            slots = (offsets["a"], offsets["b"])
            home.space.write_raw(
                address + offsets["v"], index.to_bytes(4, "big")
            )
        else:
            slots = (offsets["next"],)  # the first target
            # Discriminant, then the arm's value.
            home.space.write_raw(
                address + offsets["u"],
                (index % 2).to_bytes(4, "big") + index.to_bytes(4, "big"),
            )
        for slot, where in zip(slots, targets):
            if where == NULL:
                value = 0
            elif where == CACHED:
                value = cached
            elif where == PROVISIONAL:
                value = fresh
            elif where == INTERIOR:
                value = addresses[0] + 4
            else:
                value = addresses[where]
            home.codec.write_pointer(address + slot, value)
    named = [addresses[index] for index in roots]
    if fault == "dead":
        named.append(addresses[-1] + 4)
    return home, state, named


def outcome(serve):
    """What serving a request gives: its result, or its error."""
    try:
        return serve()
    except (SmartRpcError, XdrError) as exc:  # kind and text must match
        return type(exc), str(exc)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    graph=graphs(),
    budget=st.sampled_from([0, 12, 24, 36, 50, UNBOUNDED]),
    order=st.sampled_from([BREADTH_FIRST, DEPTH_FIRST]),
    hinted=st.sampled_from(sorted(HINTS)),
)
def test_one_pass_walk_matches_the_two_pass_oracle(
    graph, budget, order, hinted
):
    home, state, roots = build(*graph)
    hints = None
    if HINTS[hinted] is not None:
        hints = ClosureHints()
        for type_id, names in HINTS[hinted].items():
            hints.follow(type_id, names)

    def fused():
        walker = ClosureWalker(home, state, budget, order=order, hints=hints)
        emitted = walker.walk(roots)
        return emitted, walker.batch

    items = []

    def oracle():
        walked, batch = reference_data_reply_batch(
            home,
            state,
            budget,
            order,
            hints if hints is not None else home.policy.closure_hints,
            roots,
        )
        items.extend(walked)
        return [item.local_address for item in walked], batch

    got = outcome(fused)
    want = outcome(oracle)
    assert got == want
    if graph[3] == "dead":
        assert "dead home data" in got[1]
    elif isinstance(got[1], bytes):
        # The per-field encoder agrees with both.
        assert reference_encode_batch(home, state, items) == got[1]
