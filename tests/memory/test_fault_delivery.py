"""Direct fault delivery: a token miss on a protected page goes straight
to the handler.

A one-page access whose token shows the page mapped but its protection
denying the access builds the ``AccessViolation`` itself and hands it
to the space's handler, then retries through a fresh token.  It must
keep every contract of the checked plane (``tests/memory/checked.py``
is the oracle): when a fault is counted, what a raising or missing
handler does, the retry budget, what the observer and the clock see.
"""

import pytest

from repro.memory.accessor import Mem
from repro.memory.address_space import AddressSpace
from repro.memory.faults import (
    AccessViolation,
    FaultKind,
    FaultLoopError,
    SegmentationError,
)
from repro.memory.page import Protection
from repro.simnet.clock import SimClock
from repro.simnet.stats import StatsCollector
from tests.memory.checked import checked_mem

MAKERS = {"direct": Mem, "checked": checked_mem}


@pytest.fixture
def space():
    return AddressSpace("F")


def _mem(space, make="direct"):
    return MAKERS[make](space, clock=SimClock(), stats=StatsCollector())


def _no_checked_plane(space):
    def boom(*_args):
        raise AssertionError("the checked plane served a one-page fault")

    space.read = boom  # type: ignore[method-assign]
    space.write = boom  # type: ignore[method-assign]


class TestDirectPath:
    def test_read_fault_skips_the_checked_plane(self, space):
        mem = _mem(space)
        base = space.map_region(1, Protection.NONE)

        def handler(fault):
            space.write_raw(fault.address, b"fill")
            space.protect(fault.page_number, Protection.READ)

        space.set_fault_handler(handler)
        _no_checked_plane(space)
        assert mem.load(base + 8, 4) == b"fill"
        assert mem.stats.page_faults == 1

    def test_write_fault_skips_the_checked_plane(self, space):
        mem = _mem(space)
        base = space.map_region(1, Protection.READ)

        def handler(fault):
            space.protect(fault.page_number, Protection.READ_WRITE)

        space.set_fault_handler(handler)
        _no_checked_plane(space)
        mem.store(base + 4, b"abcd")
        assert space.read_raw(base + 4, 4) == b"abcd"

    def test_a_token_that_always_misses_keeps_the_checked_plane(self, space):
        # What checked_mem and bench_hotpath's checked walk rely on: with
        # no token, the fault and its retry both go through read().
        mem = _mem(space, "checked")
        base = space.map_region(1, Protection.NONE)
        reads = []
        read = space.read

        def counting_read(address, size):
            reads.append(address)
            return read(address, size)

        space.read = counting_read  # type: ignore[method-assign]
        space.set_fault_handler(
            lambda fault: space.protect(fault.page_number, Protection.READ)
        )
        mem.load(base, 4)
        mem.load(base, 4)
        assert reads == [base] * 3


@pytest.mark.parametrize("make", ["direct", "checked"])
class TestContracts:
    def test_fault_counted_only_after_the_handler_returns(self, space, make):
        mem = _mem(space, make)
        base = space.map_region(1, Protection.NONE)
        during = []

        def handler(fault):
            during.append(mem.stats.page_faults)
            space.protect(fault.page_number, Protection.READ_WRITE)

        space.set_fault_handler(handler)
        mem.load(base, 4)
        assert during == [0]
        assert mem.stats.page_faults == 1

    @pytest.mark.parametrize("store", [False, True])
    def test_raising_handler_propagates_uncounted(self, space, make, store):
        mem = _mem(space, make)
        base = space.map_region(1, Protection.NONE)

        def handler(fault):
            raise RuntimeError("handler failed")

        space.set_fault_handler(handler)
        with pytest.raises(RuntimeError, match="handler failed"):
            if store:
                mem.store(base, b"x")
            else:
                mem.load(base, 1)
        assert mem.stats.page_faults == 0
        assert mem.clock.now == 0

    @pytest.mark.parametrize(
        "protection, store, kind",
        [
            (Protection.NONE, False, FaultKind.READ),
            (Protection.NONE, True, FaultKind.WRITE),
            (Protection.READ, True, FaultKind.WRITE),
        ],
    )
    def test_no_handler_reaches_the_caller(
        self, space, make, protection, store, kind
    ):
        mem = _mem(space, make)
        base = space.map_region(2, protection)
        address = base + space.page_size + 12
        with pytest.raises(AccessViolation) as info:
            if store:
                mem.store(address, b"zz")
            else:
                mem.load(address, 2)
        fault = info.value
        assert fault.space_id == "F"
        assert fault.address == address
        assert fault.kind is kind
        assert fault.page_number == space.page_number(address)
        assert mem.stats.page_faults == 0

    @pytest.mark.parametrize("store", [False, True])
    def test_unproductive_handler_ends_in_a_fault_loop(
        self, space, make, store
    ):
        mem = _mem(space, make)
        base = space.map_region(1, Protection.NONE)
        calls = []
        space.set_fault_handler(calls.append)
        with pytest.raises(FaultLoopError) as info:
            if store:
                mem.store(base, b"x")
            else:
                mem.load(base, 1)
        assert len(calls) == 8
        assert "still faults after 8 handler invocations" in str(info.value)
        assert mem.stats.page_faults == 8

    @pytest.mark.parametrize("fixed_at", [1, 2, 7, 8])
    def test_budget_counts_invocations_as_the_checked_plane(
        self, space, make, fixed_at
    ):
        mem = _mem(space, make)
        base = space.map_region(1, Protection.NONE)
        calls = []

        def handler(fault):
            calls.append(fault)
            if len(calls) == fixed_at:
                space.protect(fault.page_number, Protection.READ_WRITE)

        space.set_fault_handler(handler)
        if fixed_at < 8:
            assert mem.load(base, 1) == b"\x00"
        else:  # the eighth invocation is never followed by a retry
            with pytest.raises(FaultLoopError):
                mem.load(base, 1)
        assert len(calls) == fixed_at

    @pytest.mark.parametrize("store", [False, True])
    def test_unmapped_page_is_a_segmentation_error(self, space, make, store):
        mem = _mem(space, make)
        base = space.map_region(1)
        space.unmap_page(space.page_number(base))
        calls = []
        space.set_fault_handler(calls.append)
        with pytest.raises(SegmentationError):
            if store:
                mem.store(base, b"x")
            else:
                mem.load(base, 1)
        assert calls == []

    def test_cross_page_span_faults_once_per_page(self, space, make):
        mem = _mem(space, make)
        base = space.map_region(2, Protection.NONE)
        pages = []

        def handler(fault):
            pages.append(fault.page_number)
            space.protect(fault.page_number, Protection.READ_WRITE)

        space.set_fault_handler(handler)
        mem.load(base + space.page_size - 4, 8, accesses=3)
        first = space.page_number(base)
        assert pages == [first, first + 1]
        assert mem.stats.page_faults == 2
        assert mem.clock.now == pytest.approx(3 * mem.cost_model.local_access)

    def test_faulted_access_is_charged_and_reported_once(self, space, make):
        mem = _mem(space, make)
        base = space.map_region(1, Protection.NONE)
        seen = []
        mem.observer = lambda address, size, write: seen.append(
            (address, size, write)
        ) or True

        def handler(fault):
            space.protect(fault.page_number, Protection.READ_WRITE)

        space.set_fault_handler(handler)
        mem.store(base + 16, b"abc", accesses=2)
        assert seen == [(base + 16, 3, True)]
        assert mem.clock.now == pytest.approx(2 * mem.cost_model.local_access)

    def test_handler_that_unmaps_the_page_ends_segmented(self, space, make):
        mem = _mem(space, make)
        base = space.map_region(1, Protection.NONE)
        space.set_fault_handler(
            lambda fault: space.unmap_page(fault.page_number)
        )
        with pytest.raises(SegmentationError):
            mem.load(base, 1)
        assert mem.stats.page_faults == 1

    def test_write_past_the_backed_bytes_after_a_write_fault_grows(
        self, space, make
    ):
        mem = _mem(space, make)
        base = space.map_region(1, Protection.NONE)
        page = space.page(space.page_number(base))
        space.write_raw(base, b"head")  # backed up to byte 4
        space.protect(page.number, Protection.READ)

        def handler(fault):
            assert fault.kind is FaultKind.WRITE
            space.protect(fault.page_number, Protection.READ_WRITE)

        space.set_fault_handler(handler)
        mem.store(base + 100, b"tail")
        assert len(page.data) == 104
        assert space.read_raw(base, 4) == b"head"
        assert space.read_raw(base + 100, 4) == b"tail"
        assert mem.load(base + 100, 4) == b"tail"
        assert mem.stats.page_faults == 1

    def test_read_past_the_backed_bytes_after_a_fault_reads_zeros(
        self, space, make
    ):
        mem = _mem(space, make)
        base = space.map_region(1, Protection.NONE)

        def handler(fault):
            space.write_raw(fault.address, b"ab")
            space.protect(fault.page_number, Protection.READ)

        space.set_fault_handler(handler)
        assert mem.load(base, 6) == b"ab\x00\x00\x00\x00"
        assert mem.stats.page_faults == 1
