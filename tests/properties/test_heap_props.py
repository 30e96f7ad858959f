"""Property-based tests for heap and allocation-table invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.address_space import AddressSpace
from repro.memory.heap import Heap
from repro.smartrpc.alloc_table import DataAllocationTable, alloc_entry
from repro.smartrpc.long_pointer import LongPointer

# A step is (op, size) where op True = malloc, False = free-oldest.
steps = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=1, max_value=500)),
    max_size=120,
)

# (op, size, pick): malloc one of a few sizes, or free the live block
# ``pick`` names — so the per-size free lists are reused.
reuse_steps = st.lists(
    st.tuples(
        st.booleans(),
        st.sampled_from([8, 16, 24, 40]),
        st.integers(min_value=0, max_value=1000),
    ),
    max_size=120,
)


class TestHeapInvariants:
    @settings(max_examples=50)
    @given(steps)
    def test_no_overlap_and_consistent_lookup(self, operations):
        heap = Heap(AddressSpace("T"))
        live = []
        for is_malloc, size in operations:
            if is_malloc or not live:
                address = heap.malloc(size, "t")
                live.append(address)
            else:
                heap.free(live.pop(0))
            spans = sorted(
                (a.address, a.end) for a in heap.live_allocations
            )
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2
        for address in live:
            allocation = heap.allocation_at(address)
            assert allocation is not None
            assert allocation.address == address

    @settings(max_examples=30)
    @given(steps)
    def test_interior_lookup_matches_linear_scan(self, operations):
        heap = Heap(AddressSpace("T"))
        live = []
        for is_malloc, size in operations:
            if is_malloc or not live:
                live.append(heap.malloc(size, "t"))
            else:
                heap.free(live.pop())
        probes = [a + off for a in live for off in (0, 1, 7)]
        allocations = heap.live_allocations
        for probe in probes:
            expected = next(
                (a for a in allocations if a.contains(probe)), None
            )
            assert heap.allocation_at(probe) is expected

    @settings(max_examples=50)
    @given(reuse_steps)
    def test_base_probe_is_the_lookup_at_a_base(self, operations):
        # Few sizes, frees anywhere: freed blocks are handed out again.
        heap = Heap(AddressSpace("T"))
        live, freed = [], set()
        for is_malloc, size, pick in operations:
            if is_malloc or not live:
                address = heap.malloc(size, "t")
                live.append(address)
                freed.discard(address)
            else:
                address = live.pop(pick % len(live))
                heap.free(address)
                freed.add(address)
        assert len(live) == len(set(live))
        probes = {0, 1, 1 << 40}
        for address in live + sorted(freed):
            probes.update((address, address + 1, address + 7, address - 8))
        for probe in probes:
            allocation = heap.allocation_at(probe)
            if allocation is not None and allocation.address != probe:
                allocation = None
            assert heap.allocation_based_at(probe) is allocation
        for address in live:
            assert heap.allocation_based_at(address).address == address
        for address in freed:
            assert heap.allocation_based_at(address) is None


entry_plans = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=10**6),   # home address
        st.integers(min_value=8, max_value=64),      # size
    ),
    max_size=60,
    unique_by=lambda t: t[0],
)


class TestAllocationTableInvariants:
    @settings(max_examples=50)
    @given(entry_plans)
    def test_containing_lookup_matches_linear_scan(self, plans):
        table = DataAllocationTable()
        local = 0x10000
        entries = []
        for home_address, size in plans:
            entry = alloc_entry(
                pointer=LongPointer("A", home_address, "t"),
                local_address=local,
                size=size,
                page_number=local // 4096,
                offset=local % 4096,
            )
            table.add(entry)
            entries.append(entry)
            local += size + 16  # leave gaps
        for entry in entries:
            for offset in (0, entry.size - 1):
                assert table.entry_containing(
                    entry.local_address + offset
                ) is entry
            gap = entry.local_address + entry.size + 4
            hit = table.entry_containing(gap)
            assert hit is None or hit is not entry

    @settings(max_examples=50)
    @given(entry_plans, st.randoms())
    def test_remove_keeps_indices_consistent(self, plans, rng):
        table = DataAllocationTable()
        local = 0x10000
        entries = []
        for home_address, size in plans:
            entry = alloc_entry(
                pointer=LongPointer("A", home_address, "t"),
                local_address=local,
                size=size,
                page_number=local // 4096,
                offset=local % 4096,
            )
            table.add(entry)
            entries.append(entry)
            local += size
        rng.shuffle(entries)
        removed = entries[: len(entries) // 2]
        kept = entries[len(entries) // 2:]
        for entry in removed:
            table.remove(entry)
        assert len(table) == len(kept)
        for entry in removed:
            assert table.entry_for(entry.pointer) is None
            assert table.entry_containing(entry.local_address) is None
        for entry in kept:
            assert table.entry_for(entry.pointer) is entry
