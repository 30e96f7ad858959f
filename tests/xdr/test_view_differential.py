"""``StructView``'s compiled accessors against the per-field ladder.

``reference_view.py`` keeps the member access ``StructView`` made before
its accessors were compiled into a table.  Every sequence of gets, sets
and element loads, on a big-endian 32-bit and a little-endian 64-bit
machine, must give the same values, raise the same ``XdrError`` texts,
leave the same bytes in memory and charge the simulated clock the same
after every access.  So must every ``get_run`` — in address order,
reversed, one member alone or any order, array members among them —
against the per-field loads it stands for.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.accessor import Mem
from repro.memory.address_space import AddressSpace
from repro.simnet.clock import CostModel, SimClock
from repro.xdr.arch import SPARC32, X86_64
from repro.xdr.types import (
    ArrayType,
    EnumType,
    Field,
    OpaqueType,
    PointerType,
    ScalarKind,
    ScalarType,
    StructType,
    int16,
    int32,
    uint8,
)
from repro.xdr.view import StructView, compile_run_plan
from tests.xdr.reference_view import (
    reference_element,
    reference_get,
    reference_set,
)

STATE = EnumType("state", {"IDLE": 0, "BUSY": 7, "DOWN": -3})
INNER = StructType("inner", [Field("a", int32), Field("b", uint8)])

SPEC = StructType(
    "every_kind",
    [Field(kind.name.lower(), ScalarType(kind)) for kind in ScalarKind]
    + [
        Field("next", PointerType("every_kind")),
        Field("tag", OpaqueType(3)),
        Field("blob", OpaqueType(8)),
        Field("state", STATE),
        Field("shorts", ArrayType(int16, 3)),
        Field("octets", ArrayType(uint8, 5)),
        Field("tags", ArrayType(OpaqueType(2), 2)),
        Field("states", ArrayType(STATE, 2)),
        Field("links", ArrayType(PointerType("every_kind"), 2)),
        Field("pairs", ArrayType(INNER, 2)),
        Field("inner", INNER),
    ],
)

NAMES = [field.name for field in SPEC.fields] + ["missing"]

VALUES = st.one_of(
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.integers(min_value=-300, max_value=300),
    st.floats(allow_nan=False, width=64),
    st.binary(max_size=10),
    st.sampled_from(["IDLE", "BUSY", "DOWN", "NOPE"]),
    st.sampled_from([0, 7, -3, 1]),
    st.none(),
    st.booleans(),
)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), st.sampled_from(NAMES)),
        st.tuples(st.just("set"), st.sampled_from(NAMES), VALUES),
        st.tuples(
            st.just("element"),
            st.sampled_from(NAMES),
            st.integers(min_value=-2, max_value=6),
        ),
    ),
    max_size=40,
)


#: Members an access run can load: all but the two holding structs.
RUNNABLE = [
    field.name for field in SPEC.fields if field.name not in ("pairs", "inner")
]

#: How a drawn set of run members is ordered.
RUN_ORDERS = ["address", "reversed", "as drawn"]

RUNS = st.lists(
    st.tuples(
        st.lists(st.sampled_from(RUNNABLE), unique=True, min_size=1),
        st.sampled_from(RUN_ORDERS),
    ),
    min_size=1,
    max_size=8,
)


def _ordered(arch, names, order):
    """``names`` in address order, reversed, or as drawn."""
    if order == "as drawn":
        return tuple(names)
    by_address = sorted(names, key=SPEC.layout(arch).offsets.__getitem__)
    if order == "reversed":
        by_address.reverse()
    return tuple(by_address)


def reference_run(mem, address, arch, names):
    """``get_run(*names)`` as per-field loads: one ``get`` per member
    and one element load per element of an array member."""
    values = []
    for name in names:
        spec = SPEC.field(name).spec
        if isinstance(spec, ArrayType):
            values.extend(
                reference_element(mem, address, SPEC, arch, name, index)
                for index in range(spec.count)
            )
        else:
            values.append(reference_get(mem, address, SPEC, arch, name))
    return tuple(values)


def _site(arch, image):
    space = AddressSpace("D")
    clock = SimClock()
    mem = Mem(space, clock=clock)
    address = space.map_region(1)
    space.write_raw(address, image)
    return space, clock, mem, address


def _outcome(action):
    try:
        return ("ok", repr(action()))
    except Exception as exc:  # the type and the text must both match
        return ("error", type(exc).__name__, str(exc))


@settings(max_examples=200, deadline=None)
@given(
    arch=st.sampled_from([SPARC32, X86_64]),
    image=st.binary(min_size=256, max_size=256),
    ops=OPS,
)
def test_compiled_accessors_match_the_ladder(arch, image, ops):
    assert SPEC.sizeof(arch) <= len(image)
    space, clock, mem, address = _site(arch, image)
    ref_space, ref_clock, ref_mem, ref_address = _site(arch, image)
    view = StructView(mem, address, SPEC, arch)
    for op in ops:
        if op[0] == "get":
            got = _outcome(lambda: view.get(op[1]))
            want = _outcome(
                lambda: reference_get(ref_mem, ref_address, SPEC, arch, op[1])
            )
        elif op[0] == "set":
            got = _outcome(lambda: view.set(op[1], op[2]))
            want = _outcome(
                lambda: reference_set(
                    ref_mem, ref_address, SPEC, arch, op[1], op[2]
                )
            )
        else:
            got = _outcome(lambda: view.element(op[1], op[2]))
            want = _outcome(
                lambda: reference_element(
                    ref_mem, ref_address, SPEC, arch, op[1], op[2]
                )
            )
        assert got == want, op
        assert clock.now == ref_clock.now, op
    assert space.read_raw(address, 256) == ref_space.read_raw(ref_address, 256)


@settings(max_examples=200, deadline=None)
@given(
    arch=st.sampled_from([SPARC32, X86_64]),
    image=st.binary(min_size=256, max_size=256),
    runs=RUNS,
)
def test_runs_match_the_per_field_loads(arch, image, runs):
    space, clock, mem, address = _site(arch, image)
    _, ref_clock, ref_mem, ref_address = _site(arch, image)
    view = StructView(mem, address, SPEC, arch)
    for drawn, order in runs:
        names = _ordered(arch, drawn, order)
        got = _outcome(lambda: view.get_run(*names))
        want = _outcome(
            lambda: reference_run(ref_mem, ref_address, arch, names)
        )
        assert got == want, names
        assert clock.now.hex() == ref_clock.now.hex(), names


def _pair(arch):
    image = bytes(256)
    space, clock, mem, address = _site(arch, image)
    ref = _site(arch, image)
    return StructView(mem, address, SPEC, arch), clock, ref


def _same(arch, op, *args):
    view, clock, (_, ref_clock, ref_mem, ref_address) = _pair(arch)
    reference = {
        "get": reference_get, "set": reference_set,
        "element": reference_element,
    }[op]
    got = _outcome(lambda: getattr(view, op)(*args))
    want = _outcome(lambda: reference(ref_mem, ref_address, SPEC, arch, *args))
    assert got == want
    assert clock.now == ref_clock.now
    return got


class TestEveryErrorText:
    """Each error the ladder raised, raised word for word, on both
    machines (the property above finds them too, but not surely)."""

    def test_unknown_field(self):
        for arch in (SPARC32, X86_64):
            for op, args in (
                ("get", ("missing",)),
                ("set", ("missing", 1)),
                ("element", ("missing", 0)),
            ):
                got = _same(arch, op, *args)
                assert "has no field 'missing'" in got[2]

    def test_aggregate_field(self):
        for arch in (SPARC32, X86_64):
            for name in ("shorts", "inner"):
                assert "cannot load aggregate" in _same(arch, "get", name)[2]
                assert "cannot store aggregate" in _same(
                    arch, "set", name, 1
                )[2]
            assert "cannot load aggregate" in _same(
                arch, "element", "pairs", 1
            )[2]

    def test_bytes_given_to_a_scalar(self):
        for arch in (SPARC32, X86_64):
            got = _same(arch, "set", "int32", b"xx")
            assert got[2] == "scalar field given bytes value b'xx'"
            got = _same(arch, "set", "uint8", 256)
            assert got[2] == "cannot pack 256 as ScalarKind.UINT8"

    def test_non_int_pointer(self):
        for arch in (SPARC32, X86_64):
            got = _same(arch, "set", "next", "addr")
            assert got[2] == "pointer field given 'addr'"

    def test_wrong_opaque_length(self):
        for arch in (SPARC32, X86_64):
            got = _same(arch, "set", "blob", b"short")
            assert got[2] == "opaque field of 8 bytes given b'short'"
            got = _same(arch, "set", "tag", bytearray(3))
            assert got[0] == "error"

    def test_invalid_enum(self):
        for arch in (SPARC32, X86_64):
            assert _same(arch, "set", "state", 1)[2] == (
                "enum field 'state' given 1"
            )
            assert "has no member 'NOPE'" in _same(
                arch, "set", "state", "NOPE"
            )[2]
            assert _same(arch, "set", "state", "DOWN") == ("ok", "None")

    def test_not_an_array_and_out_of_range(self):
        for arch in (SPARC32, X86_64):
            assert _same(arch, "element", "int32", 0)[2] == (
                "field 'int32' is not an array"
            )
            assert _same(arch, "element", "octets", 5)[2] == (
                "array index 5 out of range"
            )

    def test_every_scalar_kind_round_trips(self):
        for arch in (SPARC32, X86_64):
            view, clock, _ = _pair(arch)
            expected = 0.0
            for kind in ScalarKind:
                value = 1.5 if kind.is_float else -1 if kind.value[2] else 200
                view.set(kind.name.lower(), value)
                assert view.get(kind.name.lower()) == value
                for _ in range(2):  # one charge per access, nothing else
                    expected += CostModel().local_access
            assert clock.now == expected


class TestRunOrders:
    """Each shape of run, on both machines: the values of the per-field
    loads, and a plan whose ``unpack`` is the codec's own C call exactly
    when the members were given in address order."""

    IMAGE = bytes(range(256))

    def _check(self, arch, names):
        _, clock, mem, address = _site(arch, self.IMAGE)
        _, ref_clock, ref_mem, ref_address = _site(arch, self.IMAGE)
        got = StructView(mem, address, SPEC, arch).get_run(*names)
        assert repr(got) == repr(
            reference_run(ref_mem, ref_address, arch, names)
        )
        assert clock.now.hex() == ref_clock.now.hex()
        return compile_run_plan(SPEC, arch, names)

    def test_address_order_decodes_in_the_codecs_own_call(self):
        for arch in (SPARC32, X86_64):
            names = _ordered(arch, ["float64", "int8", "shorts", "next"],
                             "address")
            plan = self._check(arch, names)
            assert plan.unpack == plan.codec.unpack

    def test_reversed_order_is_put_back(self):
        for arch in (SPARC32, X86_64):
            names = _ordered(arch, ["float64", "int8", "shorts", "next"],
                             "reversed")
            plan = self._check(arch, names)
            assert plan.unpack != plan.codec.unpack

    def test_a_single_member(self):
        for arch in (SPARC32, X86_64):
            for name in ("uint16", "blob", "state"):
                plan = self._check(arch, (name,))
                assert plan.unpack == plan.codec.unpack

    def test_array_members(self):
        for arch in (SPARC32, X86_64):
            for names in (("octets",), ("links", "shorts"),
                          ("shorts", "tags", "states")):
                self._check(arch, names)
