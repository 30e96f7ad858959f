"""Tests for the cache manager: protected pages, fills, dirtiness."""

import pytest

from repro.memory.faults import AccessViolation, FaultKind
from repro.memory.page import Protection
from repro.smartrpc.cache import ISOLATED, PACKED
from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.long_pointer import LongPointer
from repro.smartrpc.policy import make_policy
from repro.workloads.trees import TREE_NODE_TYPE_ID


@pytest.fixture
def callee_state(smart_pair):
    """A session state on B (the callee side), plus a home tree on A."""
    return smart_pair.b.ensure_smart_session("sess-1", "A")


def remote_pointer(address=0x1000, type_id=TREE_NODE_TYPE_ID):
    return LongPointer("A", address, type_id)


class TestPlaceholderAllocation:
    def test_ensure_entry_allocates_protected_placeholder(
        self, smart_pair, callee_state
    ):
        cache = callee_state.cache
        entry = cache.ensure_entry(remote_pointer())
        assert not entry.resident
        space = smart_pair.b.space
        assert (
            space.protection_of(entry.page_number) is Protection.NONE
        )
        # x86-64 callee: the 16-byte SPARC node needs 24 local bytes.
        assert entry.size == 24

    def test_ensure_entry_reuses_existing(self, callee_state):
        cache = callee_state.cache
        first = cache.ensure_entry(remote_pointer())
        second = cache.ensure_entry(remote_pointer())
        assert first is second

    def test_same_page_for_same_episode(self, callee_state):
        cache = callee_state.cache
        first = cache.ensure_entry(remote_pointer(0x1000))
        second = cache.ensure_entry(remote_pointer(0x2000))
        assert first.page_number == second.page_number
        assert second.offset > first.offset

    def test_new_page_after_episode_finished(self, callee_state):
        cache = callee_state.cache
        first = cache.ensure_entry(remote_pointer(0x1000))
        cache.datum_seal()
        second = cache.ensure_entry(remote_pointer(0x2000))
        assert first.page_number != second.page_number

    def test_fresh_allocation_is_resident_dirty_writable(
        self, smart_pair, callee_state
    ):
        cache = callee_state.cache
        entry = cache.allocate_fresh(remote_pointer(0x9000), 24)
        assert entry.resident
        assert entry.page_number in cache.dirty_pages
        protection = smart_pair.b.space.protection_of(entry.page_number)
        assert protection is Protection.READ_WRITE

    def test_fresh_and_remote_never_share_pages(self, callee_state):
        cache = callee_state.cache
        placeholder = cache.ensure_entry(remote_pointer(0x1000))
        fresh = cache.allocate_fresh(remote_pointer(0x9000), 24)
        assert placeholder.page_number != fresh.page_number

    def test_span_allocation_for_large_data(self, smart_pair, callee_state):
        cache = callee_state.cache
        page_size = smart_pair.b.space.page_size
        entry = cache.place(
            remote_pointer(0x8000, "big"), page_size * 2 + 100, 8
        )
        pages = cache._entry_pages(entry)
        assert len(pages) == 3
        for number in pages:
            assert cache.owns_page(number)

    def test_unknown_strategy_rejected(self):
        # Checked once, when the policy is built: a cache manager never
        # sees a strategy it cannot run.
        for name in ("paper", "lazy", "adaptive", "pipelined"):
            with pytest.raises(SmartRpcError):
                make_policy(name, allocation_strategy="bogus")


class TestStrategies:
    def test_isolated_puts_each_entry_alone(self, smart_pair):
        runtime = smart_pair.add_runtime(
            "C", policy=make_policy("paper", allocation_strategy=ISOLATED)
        )
        state = runtime.ensure_smart_session("s", "A")
        first = state.cache.ensure_entry(remote_pointer(0x1000))
        second = state.cache.ensure_entry(remote_pointer(0x2000))
        assert first.page_number != second.page_number

    def test_packed_keeps_page_open_across_datums(self, smart_pair):
        runtime = smart_pair.add_runtime(
            "D", policy=make_policy("paper", allocation_strategy=PACKED)
        )
        state = runtime.ensure_smart_session("s", "A")
        # The batch loop's per-datum seal: none under ``packed``.
        assert state.cache.datum_seal is None
        first = state.cache.ensure_entry(remote_pointer(0x1000))
        second = state.cache.ensure_entry(remote_pointer(0x2000))
        assert first.page_number == second.page_number
        state.cache.finish_batch()
        third = state.cache.ensure_entry(remote_pointer(0x3000))
        assert third.page_number != first.page_number

    def test_single_home_separates_homes(self, callee_state):
        cache = callee_state.cache
        first = cache.ensure_entry(remote_pointer(0x1000))
        second = cache.ensure_entry(
            LongPointer("Z", 0x1000, TREE_NODE_TYPE_ID)
        )
        assert first.page_number != second.page_number


class TestResidencyAndRelease:
    def test_page_released_read_only_when_complete(
        self, smart_pair, callee_state
    ):
        cache = callee_state.cache
        first = cache.ensure_entry(remote_pointer(0x1000))
        second = cache.ensure_entry(remote_pointer(0x2000))
        cache.mark_resident(first)
        space = smart_pair.b.space
        assert space.protection_of(first.page_number) is Protection.NONE
        cache.mark_resident(second)
        assert space.protection_of(first.page_number) is Protection.READ

    def test_mark_resident_idempotent(self, callee_state):
        cache = callee_state.cache
        entry = cache.ensure_entry(remote_pointer())
        cache.mark_resident(entry)
        cache.mark_resident(entry)
        assert entry.resident

    def test_release_entry_removes_rows(self, callee_state):
        cache = callee_state.cache
        entry = cache.ensure_entry(remote_pointer())
        cache.release_entry(entry)
        assert cache.table.entry_for(entry.pointer) is None
        assert cache.page_state(entry.page_number) == []

    def test_freeing_the_last_missing_row_releases_the_page(
        self, smart_pair, callee_state
    ):
        cache = callee_state.cache
        first = cache.ensure_entry(remote_pointer(0x1000))
        second = cache.ensure_entry(remote_pointer(0x2000))
        assert first.page_number == second.page_number
        cache.mark_resident(first)
        cache.release_entry(second)
        space = smart_pair.b.space
        assert space.protection_of(first.page_number) is Protection.READ
        # The surviving datum reads without a fault: no fill that can
        # fetch nothing, no fault loop.
        stats = smart_pair.network.stats
        filled, faults = stats.pages_filled, stats.page_faults
        assert smart_pair.b.mem.load(first.local_address, 8) == bytes(8)
        assert (stats.pages_filled, stats.page_faults) == (filled, faults)

    def test_held_releases_land_in_one_pass(self, smart_pair, callee_state):
        cache = callee_state.cache
        space = smart_pair.b.space
        entries = []
        for address in (0x1000, 0x2000, 0x3000):
            entries.append(cache.ensure_entry(remote_pointer(address)))
            cache.datum_seal()
        held = []
        for entry in entries:
            cache.mark_resident(entry, held)
        assert held == [entry.page_number for entry in entries]
        assert all(
            space.protection_of(entry.page_number) is Protection.NONE
            for entry in entries
        )
        before = space.generation
        space.protect_pages(held, Protection.READ)
        assert space.generation == before + 1
        assert all(
            space.protection_of(entry.page_number) is Protection.READ
            for entry in entries
        )


class TestOnePageIndex:
    def test_page_entries_are_the_table_rows(self, callee_state):
        cache = callee_state.cache
        first = cache.ensure_entry(remote_pointer(0x1000))
        second = cache.ensure_entry(remote_pointer(0x2000))
        rows = cache.page_state(first.page_number)
        assert rows is cache.table.page_rows(first.page_number)
        assert rows == [first, second]

    def test_span_rows_are_listed_on_every_page(
        self, smart_pair, callee_state
    ):
        cache = callee_state.cache
        page_size = smart_pair.b.space.page_size
        entry = cache.place(
            remote_pointer(0x8000, "big"), page_size * 2 + 100, 8
        )
        for number in cache.pages_of(entry):
            assert cache.page_state(number) == [entry]
        last = entry.local_address + entry.size - 1
        assert cache.table.entry_containing(last) is entry


class TestDirtiness:
    def test_write_fault_marks_page_dirty(self, smart_pair, callee_state):
        cache = callee_state.cache
        entry = cache.ensure_entry(remote_pointer())
        cache.mark_resident(entry)
        cache.mark_dirty_page(cache.pages[entry.page_number])
        assert entry.page_number in cache.dirty_pages
        space = smart_pair.b.space
        assert (
            space.protection_of(entry.page_number)
            is Protection.READ_WRITE
        )

    def test_dirty_marking_idempotent(self, callee_state):
        cache = callee_state.cache
        entry = cache.ensure_entry(remote_pointer())
        cache.mark_resident(entry)
        cache.mark_dirty_page(cache.pages[entry.page_number])
        cache.mark_dirty_page(cache.pages[entry.page_number])
        assert len(cache.dirty_pages) == 1

    def test_dirty_before_fill_rejected(self, callee_state):
        cache = callee_state.cache
        entry = cache.ensure_entry(remote_pointer())
        with pytest.raises(SmartRpcError):
            cache.mark_dirty_page(cache.pages[entry.page_number])

    def test_dirty_entries_lists_page_contents(self, callee_state):
        cache = callee_state.cache
        first = cache.ensure_entry(remote_pointer(0x1000))
        second = cache.ensure_entry(remote_pointer(0x2000))
        for entry in (first, second):
            cache.mark_resident(entry)
        cache.mark_dirty_page(cache.pages[first.page_number])
        dirty = cache.dirty_entries()
        assert set(id(e) for e in dirty) == {id(first), id(second)}


class TestInvalidate:
    def test_invalidate_unmaps_and_clears(self, smart_pair, callee_state):
        cache = callee_state.cache
        entry = cache.ensure_entry(remote_pointer())
        page = entry.page_number
        cache.invalidate()
        assert not cache.owns_page(page)
        assert not smart_pair.b.space.is_mapped(page * 4096)
        assert len(cache.table) == 0
        assert cache.dirty_pages == set()

    def test_invalidate_counts_in_stats(self, smart_pair, callee_state):
        before = smart_pair.network.stats.invalidations
        callee_state.cache.invalidate()
        assert smart_pair.network.stats.invalidations == before + 1


class TestFaultDispatch:
    def test_fault_on_noncache_page_reraises(self, smart_pair):
        runtime = smart_pair.b
        base = runtime.space.map_region(1, Protection.NONE)
        fault = AccessViolation(
            "B", base, FaultKind.READ, runtime.space.page_number(base)
        )
        with pytest.raises(AccessViolation):
            runtime._handle_fault(fault)

    def test_unknown_page_state_rejected(self, callee_state):
        with pytest.raises(SmartRpcError):
            callee_state.cache.page_state(424242)
