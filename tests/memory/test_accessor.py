"""Tests for the fault-transparent memory accessor."""

import pytest

from repro.memory.accessor import Mem
from repro.memory.address_space import AddressSpace
from repro.memory.faults import (
    AccessViolation,
    FaultKind,
    FaultLoopError,
)
from repro.memory.page import Protection
from repro.simnet.clock import CostModel, SimClock
from repro.simnet.stats import StatsCollector


@pytest.fixture
def space():
    return AddressSpace("T")


@pytest.fixture
def mem(space):
    return Mem(space, clock=SimClock(), stats=StatsCollector())


class TestPlainAccess:
    def test_load_store_round_trip(self, space, mem):
        base = space.map_region(1)
        mem.store(base, b"data!")
        assert mem.load(base, 5) == b"data!"

    def test_clock_charged_per_access(self, space):
        clock = SimClock()
        mem = Mem(space, clock=clock,
                  cost_model=CostModel(local_access=1e-6))
        base = space.map_region(1)
        mem.store(base, b"ab")
        mem.load(base, 2)
        assert clock.now == pytest.approx(2e-6)

    def test_no_clock_is_fine(self, space):
        mem = Mem(space)
        base = space.map_region(1)
        mem.store(base, b"x")
        assert mem.load(base, 1) == b"x"


class TestFaultDelivery:
    def test_handler_invoked_and_access_retried(self, space, mem):
        base = space.map_region(1, Protection.NONE)
        seen = []

        def handler(fault):
            seen.append((fault.kind, fault.page_number))
            space.write_raw(base, b"fill")
            space.protect(fault.page_number, Protection.READ_WRITE)

        space.set_fault_handler(handler)
        assert mem.load(base, 4) == b"fill"
        assert seen == [(FaultKind.READ, space.page_number(base))]

    def test_write_fault_reports_write_kind(self, space, mem):
        base = space.map_region(1, Protection.READ)
        kinds = []

        def handler(fault):
            kinds.append(fault.kind)
            space.protect(fault.page_number, Protection.READ_WRITE)

        space.set_fault_handler(handler)
        mem.store(base, b"w")
        assert kinds == [FaultKind.WRITE]

    def test_no_handler_propagates_violation(self, space, mem):
        base = space.map_region(1, Protection.NONE)
        with pytest.raises(AccessViolation):
            mem.load(base, 1)

    def test_unproductive_handler_raises_fault_loop(self, space, mem):
        base = space.map_region(1, Protection.NONE)
        space.set_fault_handler(lambda fault: None)
        with pytest.raises(FaultLoopError):
            mem.load(base, 1)

    def test_faults_counted_in_stats(self, space):
        stats = StatsCollector()
        mem = Mem(space, clock=SimClock(), stats=stats)
        base = space.map_region(1, Protection.NONE)

        def handler(fault):
            space.protect(fault.page_number, Protection.READ_WRITE)

        space.set_fault_handler(handler)
        mem.load(base, 1)
        assert stats.page_faults == 1

    def test_resident_access_does_not_fault_again(self, space, mem):
        """The paper's claim: after caching, access cost is local."""
        base = space.map_region(1, Protection.NONE)
        calls = []

        def handler(fault):
            calls.append(fault.address)
            space.protect(fault.page_number, Protection.READ_WRITE)

        space.set_fault_handler(handler)
        mem.load(base, 4)
        mem.load(base, 4)
        mem.load(base + 100, 4)
        assert len(calls) == 1

    def test_multi_page_access_faults_each_protected_page(self, space, mem):
        base = space.map_region(2, Protection.NONE)
        filled = []

        def handler(fault):
            filled.append(fault.page_number)
            space.protect(fault.page_number, Protection.READ_WRITE)

        space.set_fault_handler(handler)
        mem.load(base + space.page_size - 4, 8)
        assert len(filled) == 2
