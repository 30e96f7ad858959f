"""The access plane's clock charge, held to one ``advance`` per access.

``Mem`` moves ``SimClock.now`` itself, with no call into the clock: one
``CostModel.local_access`` added per modelled access, in access order
(the access-plane contract in ``SimClock``'s docstring).  Over random
start instants, charges and access counts (0–40, and a negative one
now and then), and a mix of single loads and stores, access runs,
struct runs through ``StructView.get_run`` and ``load_array`` — on the
token path and on the checked oracle, on pages that fault first (some
of them more than once), settle or keep reporting — the clock must
read after every access exactly what a reference clock reads after one
``advance`` per fault charge and per modelled access, compared by
``float.hex``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.accessor import Mem
from repro.memory.address_space import AddressSpace
from repro.memory.page import PAGE_SIZE_DEFAULT, Protection
from repro.simnet.clock import CostModel, SimClock
from repro.xdr.arch import SPARC32
from repro.xdr.types import ArrayType, Field, PointerType, StructType, int32
from repro.xdr.view import StructView
from tests.memory.checked import checked_mem

#: Pages the ops address; one more is mapped after them, so a span
#: straddling out of the last one stays mapped.
NUM_PAGES = 3
PAGE = PAGE_SIZE_DEFAULT

NODE = StructType(
    "charged_node",
    [
        Field("value", int32),
        Field("next", PointerType("charged_node")),
        Field("weights", ArrayType(int32, 4)),
    ],
)
#: Modelled accesses of each member in a run: one per element.
NODE_ACCESSES = {"value": 1, "next": 1, "weights": 4}

PROTECTIONS = st.sampled_from(list(Protection))
PAGES = st.integers(min_value=0, max_value=NUM_PAGES - 1)
#: Near the start of a page, or close enough to its end that the span
#: may straddle into the next page (the checked path on either Mem).
OFFSETS = st.one_of(
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=PAGE - 24, max_value=PAGE - 1),
)
ACCESSES = st.one_of(
    st.just(1),
    st.integers(min_value=0, max_value=40),
    st.just(-1),
)

OPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["load", "store"]), PAGES, OFFSETS,
            st.integers(min_value=1, max_value=16), ACCESSES,
        ),
        st.tuples(
            st.just("run"), PAGES, st.integers(min_value=0, max_value=64),
            st.permutations(sorted(NODE_ACCESSES)).flatmap(
                lambda names: st.integers(1, len(names)).map(
                    lambda count: tuple(names[:count])
                )
            ),
        ),
        st.tuples(
            st.just("array"), PAGES, st.integers(min_value=0, max_value=64),
            st.integers(min_value=0, max_value=40),
        ),
        st.tuples(st.just("protect"), PAGES, PROTECTIONS),
    ),
    max_size=40,
)

#: Charges: the calibrated ones and arbitrary finite seconds, whose
#: sums round in every direction.
CHARGES = st.one_of(
    st.sampled_from([0.0, 0.35e-6, 0.3e-6, 1e-6, CostModel().local_access]),
    st.floats(min_value=0, max_value=1e-2, allow_nan=False),
)
STARTS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
)


def _modelled(op):
    """The modelled access count of one access op."""
    if op[0] == "run":
        return sum(NODE_ACCESSES[name] for name in op[3])
    return op[4] if op[0] in ("load", "store") else op[3]


def _perform(mem, address, op):
    """Make one access op's access at ``address``."""
    if op[0] == "load":
        mem.load(address, op[3], op[4])
    elif op[0] == "store":
        mem.store(address, bytes(range(op[3])), op[4])
    elif op[0] == "run":
        StructView(mem, address, NODE, SPARC32).get_run(*op[3])
    else:
        mem.load_array(address, int32, op[3], SPARC32)


def _observer(answer):
    if answer == "none":
        return None
    # "settle": every answer is truthy; "report": every answer is falsy.
    return lambda address, size, is_write: answer == "settle"


@settings(max_examples=150, deadline=None)
@given(
    start=STARTS,
    charge=CHARGES,
    fault_charge=CHARGES,
    checked=st.booleans(),
    answer=st.sampled_from(["none", "settle", "report"]),
    stubborn=st.booleans(),
    protections=st.lists(PROTECTIONS, min_size=NUM_PAGES, max_size=NUM_PAGES),
    ops=OPS,
)
def test_every_access_charges_one_add_per_modelled_access(
    start, charge, fault_charge, checked, answer, stubborn, protections, ops
):
    space = AddressSpace("P")
    clock = SimClock()
    reference = SimClock()
    clock.advance(start)
    reference.advance(start)
    make = checked_mem if checked else Mem
    mem = make(space, clock=clock, cost_model=CostModel(local_access=charge))
    mem.observer = _observer(answer)
    base = space.map_region(NUM_PAGES + 1)
    first = space.page_number(base)
    for index, protection in enumerate(protections):
        space.protect(first + index, protection)
    handled = []

    def handler(fault):
        # The runtime's handler charges its fault through ``advance``,
        # before the access it resolves is charged.  A stubborn one
        # resolves only every other fault, so the access is retried.
        handled.append(fault.page_number)
        clock.advance(fault_charge)
        if not stubborn or len(handled) % 2 == 0:
            space.protect(fault.page_number, Protection.READ_WRITE)

    space.set_fault_handler(handler)
    for op in ops:
        if op[0] == "protect":
            space.protect(first + op[1], op[2])
            continue
        address = (first + op[1]) * PAGE + op[2]
        before = len(handled)
        accesses = _modelled(op)
        if accesses < 0:
            with pytest.raises(ValueError):
                _perform(mem, address, op)
        else:
            _perform(mem, address, op)
        for _ in range(len(handled) - before):
            reference.advance(fault_charge)
        for _ in range(max(accesses, 0)):
            reference.advance(charge)
        assert clock.now.hex() == reference.now.hex(), op
    assert clock.now.hex() == reference.now.hex()
