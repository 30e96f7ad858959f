"""Page access tokens, access runs, and typed bulk loads.

The token fast path must be invisible: every behaviour here (fault
delivery, protection enforcement, charge accounting, observer
callbacks) is specified by the checked path, and the token path must
reproduce it exactly — only cheaper.
"""

import struct

import pytest

from repro.memory.accessor import Mem
from repro.memory.address_space import AddressSpace
from repro.memory.faults import (
    AccessViolation,
    FaultKind,
    SegmentationError,
)
from repro.memory.page import Protection
from repro.simnet.clock import CostModel, SimClock
from repro.simnet.stats import StatsCollector
from repro.xdr.arch import SPARC32, X86_64
from repro.xdr.types import (
    ArrayType,
    Field,
    OpaqueType,
    PointerType,
    StructType,
    int32,
    int64,
)
from repro.xdr.view import StructView
from tests.memory.checked import checked_mem


@pytest.fixture
def space():
    return AddressSpace("T")


@pytest.fixture
def mem(space):
    return Mem(space, clock=SimClock(), stats=StatsCollector())


class TestTokenFastPath:
    def test_resident_access_skips_checked_path(self, space, mem):
        base = space.map_region(1)
        mem.store(base, b"data")

        def boom(address, size):
            raise AssertionError("checked path used on resident page")

        space.read = boom  # type: ignore[method-assign]
        assert mem.load(base, 4) == b"data"
        assert mem.load(base + 8, 2) == b"\x00\x00"

    def test_token_miss_takes_checked_path(self, space):
        mem = checked_mem(space)
        base = space.map_region(1)
        reads = []
        original = space.read

        def counting(address, size):
            reads.append(address)
            return original(address, size)

        space.read = counting  # type: ignore[method-assign]
        mem.store(base, b"x")
        mem.load(base, 1)
        mem.load(base, 1)
        assert len(reads) == 2

    def test_token_sees_raw_plane_writes(self, space, mem):
        base = space.map_region(1)
        assert mem.load(base, 4) == b"\x00\x00\x00\x00"
        space.write_raw(base, b"wxyz")
        assert mem.load(base, 4) == b"wxyz"

    def test_token_store_visible_to_raw_plane(self, space, mem):
        base = space.map_region(1)
        mem.load(base, 1)  # acquire the token first
        mem.store(base + 4, b"pq")
        assert space.read_raw(base + 4, 2) == b"pq"

    def test_protect_invalidates_tokens(self, space, mem):
        base = space.map_region(1)
        mem.store(base, b"a")  # writable token now cached
        space.protect(space.page_number(base), Protection.READ)
        faults = []

        def handler(fault):
            faults.append(fault.kind)
            space.protect(fault.page_number, Protection.READ_WRITE)

        space.set_fault_handler(handler)
        mem.store(base, b"b")
        assert faults == [FaultKind.WRITE]
        assert mem.load(base, 1) == b"b"

    def test_unmap_invalidates_tokens(self, space, mem):
        base = space.map_region(1)
        mem.load(base, 1)
        space.unmap_page(space.page_number(base))
        with pytest.raises(SegmentationError):
            mem.load(base, 1)

    def test_token_does_not_outlive_a_reused_page_number(self, space, mem):
        base = space.map_region(1)
        mem.store(base, b"old")  # writable token over the old buffer
        space.unmap_page(space.page_number(base))
        assert space.map_region(1, Protection.READ) == base
        assert mem.load(base, 3) == bytes(3)  # the new page, not the old
        with pytest.raises(AccessViolation):
            mem.store(base, b"x")

    def test_map_region_invalidates_and_new_pages_work(self, space, mem):
        first = space.map_region(1)
        mem.load(first, 1)
        second = space.map_region(1)
        mem.store(second, b"ok")
        assert mem.load(second, 2) == b"ok"

    def test_read_only_page_denies_token_store(self, space, mem):
        base = space.map_region(1, Protection.READ)
        mem.load(base, 1)  # read token is fine
        with pytest.raises(AccessViolation):
            mem.store(base, b"x")

    def test_cross_page_access_falls_back_correctly(self, space, mem):
        base = space.map_region(2)
        boundary = base + space.page_size - 2
        mem.store(boundary, b"abcd")
        assert mem.load(boundary, 4) == b"abcd"

    def test_tokens_shared_nothing_between_accessors(self, space):
        checked = checked_mem(space)
        fast = Mem(space)
        base = space.map_region(1)
        fast.store(base, b"t")
        assert checked.load(base, 1) == b"t"


class TestFaultCounting:
    def test_raising_handler_scores_no_fault(self, space):
        stats = StatsCollector()
        mem = Mem(space, stats=stats)
        base = space.map_region(1, Protection.NONE)

        def broken(fault):
            raise RuntimeError("handler died before resolving")

        space.set_fault_handler(broken)
        with pytest.raises(RuntimeError):
            mem.load(base, 1)
        assert stats.page_faults == 0

    def test_resolving_handler_scores_one_fault(self, space):
        stats = StatsCollector()
        mem = Mem(space, stats=stats)
        base = space.map_region(1, Protection.NONE)

        def handler(fault):
            space.protect(fault.page_number, Protection.READ_WRITE)

        space.set_fault_handler(handler)
        mem.load(base, 1)
        assert stats.page_faults == 1


class TestAccessRuns:
    def test_load_accesses_single_coalesced_observer(self, space, mem):
        base = space.map_region(1)
        mem.store(base, b"abcdefgh")
        seen = []
        mem.observer = lambda a, s, w: seen.append((a, s, w))
        assert mem.load(base, 8, accesses=2) == b"abcdefgh"
        assert seen == [(base, 8, False)]

    def test_store_accesses_single_coalesced_observer(self, space, mem):
        base = space.map_region(1)
        seen = []
        mem.observer = lambda a, s, w: seen.append((a, s, w))
        mem.store(base, b"zyxw", accesses=4)
        assert seen == [(base, 4, True)]
        assert space.read_raw(base, 4) == b"zyxw"

    def test_run_charges_identical_to_access_loop(self, space):
        model = CostModel(local_access=0.3e-6)
        bulk_clock, loop_clock = SimClock(), SimClock()
        mem = Mem(space, clock=bulk_clock, cost_model=model)
        base = space.map_region(1)
        mem.load(base, 16, accesses=7)
        mem.store(base, b"abcd", accesses=3)
        for _ in range(10):
            loop_clock.advance(model.local_access)
        # Exact equality, not approx: a run must accumulate float time
        # in the same order as the per-access loop it replaces.
        assert bulk_clock.now == loop_clock.now

    def test_run_charges_on_checked_path_too(self, space):
        model = CostModel(local_access=0.3e-6)
        clock = SimClock()
        mem = checked_mem(space, clock=clock, cost_model=model)
        base = space.map_region(1)
        mem.load(base, 16, accesses=7)
        mem.store(base, b"abcd", accesses=3)
        loop = SimClock()
        for _ in range(10):
            loop.advance(model.local_access)
        assert clock.now == loop.now

    def test_multi_page_run_faults_each_page(self, space, mem):
        base = space.map_region(2, Protection.NONE)
        filled = []

        def handler(fault):
            filled.append(fault.page_number)
            space.protect(fault.page_number, Protection.READ_WRITE)

        space.set_fault_handler(handler)
        boundary = base + space.page_size - 4
        assert mem.load(boundary, 8, accesses=2) == b"\x00" * 8
        assert filled == [space.page_number(base),
                          space.page_number(base) + 1]

    def test_run_resolves_fault_then_uses_token(self, space, mem):
        base = space.map_region(1, Protection.NONE)

        def handler(fault):
            space.write_raw(base, b"ready!")
            space.protect(fault.page_number, Protection.READ_WRITE)

        space.set_fault_handler(handler)
        assert mem.load(base, 6, accesses=3) == b"ready!"
        space.read = None  # type: ignore[assignment]  # must not be used
        assert mem.load(base, 6, accesses=3) == b"ready!"


    def test_single_access_does_not_bill(self, space):
        class AdvanceOnly(SimClock):
            def bill(self, seconds, count):
                raise AssertionError("a single access went through bill")

        clock = AdvanceOnly()
        mem = Mem(space, clock=clock, cost_model=CostModel(local_access=1e-6))
        base = space.map_region(1)
        mem.store(base, b"ab")
        assert mem.load(base, 2) == b"ab"
        assert clock.now == 2e-6


class TestSettledPages:
    """A truthy observer answer silences that page until the next bump."""

    @staticmethod
    def settling(seen, answer=True):
        def observer(address, size, is_write):
            seen.append((address, size, is_write))
            return answer

        return observer

    def test_truthy_answer_silences_only_that_page(self, space, mem):
        base = space.map_region(2)
        other = base + space.page_size
        seen = []
        mem.observer = self.settling(seen)
        mem.load(base, 4)
        mem.load(base + 8, 4, accesses=2)
        mem.store(base, b"ab")
        mem.store(other, b"cd")
        mem.load(other, 2)
        assert seen == [(base, 4, False), (other, 2, True)]
        assert mem.load(base, 2) == b"ab"  # the access itself still works

    def test_settled_page_is_rearmed_by_the_next_bump(self, space, mem):
        base = space.map_region(1)
        seen = []
        mem.observer = self.settling(seen)
        mem.load(base, 4)
        mem.load(base, 4)
        space.protect(space.page_number(base), Protection.READ)
        mem.load(base, 4)
        mem.load(base, 4)
        assert seen == [(base, 4, False)] * 2

    @pytest.mark.parametrize("answer", [None, False, 0])
    def test_falsy_answer_keeps_the_callbacks(self, space, mem, answer):
        base = space.map_region(1)
        seen = []
        mem.observer = self.settling(seen, answer)
        for _ in range(3):
            mem.load(base, 4)
        mem.store(base, b"x", accesses=2)
        assert seen == [(base, 4, False)] * 3 + [(base, 1, True)]

    def test_installing_an_observer_rearms_every_page(self, space, mem):
        base = space.map_region(2)
        other = base + space.page_size
        first, second = [], []
        mem.observer = self.settling(first)
        mem.load(base, 1)
        mem.load(other, 1)
        mem.observer = self.settling(second)
        mem.load(base, 1)
        mem.load(other, 1)
        mem.load(base, 1)
        assert first == [(base, 1, False), (other, 1, False)]
        assert second == first

    def test_checked_path_always_reports(self, space):
        mem = checked_mem(space)
        base = space.map_region(1)
        seen = []
        mem.observer = self.settling(seen)
        mem.load(base, 4)
        mem.store(base, b"ab")
        mem.load(base, 4, accesses=2)
        assert seen == [(base, 4, False), (base, 2, True), (base, 4, False)]

    def test_cross_page_span_always_reports(self, space, mem):
        base = space.map_region(2)
        boundary = base + space.page_size - 2
        seen = []
        mem.observer = self.settling(seen)
        mem.load(base, 1)  # settles the first page
        mem.load(boundary, 4)
        mem.store(boundary, b"abcd", accesses=2)
        assert seen == [
            (base, 1, False), (boundary, 4, False), (boundary, 4, True),
        ]

    def test_fault_retry_reports_though_page_settled(self, space, mem):
        base = space.map_region(1, Protection.NONE)
        number = space.page_number(base)

        def handler(fault):
            space.write_raw(base, b"ok")  # back the bytes the load reads
            space.protect(number, Protection.READ)

        space.set_fault_handler(handler)
        seen = []
        mem.observer = self.settling(seen)
        mem.load(base, 2)  # faults, then reports from the checked path
        mem.load(base, 2)  # token path: reports, answers settled
        mem.load(base, 2)
        assert seen == [(base, 2, False)] * 2

    def test_observer_that_bumps_leaves_the_page_armed(self, space, mem):
        base = space.map_region(1)
        number = space.page_number(base)
        seen = []

        def bumping(address, size, is_write):
            seen.append(address)
            space.protect(number, Protection.READ_WRITE)
            return True

        mem.observer = bumping
        mem.load(base, 1)
        mem.load(base, 1)
        assert seen == [base, base]


class TestNegativeAccessCount:
    """``accesses < 0`` is a ``ValueError`` on every path, clock or not."""

    @pytest.fixture(params=["token", "checked"])
    def make(self, request):
        return Mem if request.param == "token" else checked_mem

    @pytest.mark.parametrize("clocked", [True, False])
    def test_load_rejects_negative_accesses(self, space, make, clocked):
        clock = SimClock() if clocked else None
        mem = make(space, clock=clock)
        base = space.map_region(1)
        seen = []
        mem.observer = lambda a, s, w: seen.append(a)
        with pytest.raises(ValueError):
            mem.load(base, 8, accesses=-3)
        assert seen == []
        assert clock is None or clock.now == 0.0

    @pytest.mark.parametrize("clocked", [True, False])
    def test_store_rejects_negative_accesses(self, space, make, clocked):
        clock = SimClock() if clocked else None
        mem = make(space, clock=clock)
        base = space.map_region(1)
        with pytest.raises(ValueError):
            mem.store(base, b"abcd", accesses=-1)
        assert space.read_raw(base, 4) == bytes(4)
        assert clock is None or clock.now == 0.0

    def test_cross_page_span_rejects_negative_accesses(self, space, mem):
        base = space.map_region(2)
        boundary = base + space.page_size - 2
        with pytest.raises(ValueError):
            mem.load(boundary, 4, accesses=-2)
        with pytest.raises(ValueError):
            mem.store(boundary, b"abcd", accesses=-2)
        assert space.read_raw(boundary, 4) == bytes(4)

class TestTypedBulk:
    def test_load_array_int32_round_trip(self, space, mem):
        base = space.map_region(1)
        values = [3, -1, 70000, 0]
        mem.store(base, struct.pack(">4i", *values), accesses=4)
        assert mem.load_array(base, int32, 4, SPARC32) == values

    def test_load_array_int64_round_trip(self, space, mem):
        base = space.map_region(1)
        values = [1 << 40, -5]
        mem.store(base, struct.pack(">2q", *values), accesses=2)
        assert mem.load_array(base, int64, 2, SPARC32) == values

    def test_opaque_array_round_trip(self, space, mem):
        base = space.map_region(1)
        values = [b"aaaabbbb", b"ccccdddd"]
        mem.store(base, b"".join(values), accesses=2)
        assert mem.load_array(base, OpaqueType(8), 2, SPARC32) == values

    def test_non_identity_layout_rejected(self, space, mem):
        base = space.map_region(1)
        # int32 on a little-endian machine is not wire-identical.
        with pytest.raises(ValueError):
            mem.load_array(base, int32, 1, X86_64)

    def test_negative_count_rejected(self, space, mem):
        base = space.map_region(1)
        with pytest.raises(ValueError):
            mem.load_array(base, int32, -1, SPARC32)

    def test_array_run_charges_once_per_element(self, space):
        model = CostModel(local_access=1e-6)
        clock = SimClock()
        mem = Mem(space, clock=clock, cost_model=model)
        base = space.map_region(1)
        mem.load_array(base, int32, 5, SPARC32)
        loop = SimClock()
        for _ in range(5):
            loop.advance(model.local_access)
        assert clock.now == loop.now

    def test_struct_view_run_orders_and_flattens(self, space, mem):
        spec = StructType("node", [
            Field("edges", ArrayType(PointerType("node"), 3)),
            Field("weight", int64),
        ])
        base = space.map_region(1)
        layout = spec.layout(SPARC32)
        for slot, target in enumerate((0x10, 0x20, 0x30)):
            space.write_raw(
                layout.offsets["edges"] + base + slot * 4,
                target.to_bytes(4, "big"),
            )
        space.write_raw(
            base + layout.offsets["weight"],
            (99).to_bytes(8, "big", signed=True),
        )
        run = StructView(mem, base, spec, SPARC32).get_run("weight", "edges")
        assert run == (99, 0x10, 0x20, 0x30)
