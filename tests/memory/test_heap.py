"""Tests for the typed heap."""

import pytest

from repro.memory.address_space import AddressSpace
from repro.memory.heap import Heap, HeapError


@pytest.fixture
def heap():
    return Heap(AddressSpace("T"))


class TestMalloc:
    def test_returns_distinct_aligned_addresses(self, heap):
        a = heap.malloc(16, "t")
        b = heap.malloc(16, "t")
        assert a != b
        assert a % 8 == 0 and b % 8 == 0

    def test_size_rounds_up_to_alignment(self, heap):
        a = heap.malloc(5, "t")
        allocation = heap.allocation_at(a)
        assert allocation.size == 8

    def test_type_recorded(self, heap):
        a = heap.malloc(16, "tree_node")
        assert heap.allocation_at(a).type_id == "tree_node"

    def test_bad_size_rejected(self, heap):
        with pytest.raises(HeapError):
            heap.malloc(0, "t")
        with pytest.raises(HeapError):
            heap.malloc(-4, "t")

    def test_large_allocation_spans_pages(self, heap):
        size = heap.space.page_size * 3 + 100
        a = heap.malloc(size, "big")
        assert heap.allocation_at(a + size - 1) is not None

    def test_memory_is_usable(self, heap):
        a = heap.malloc(32, "t")
        heap.space.write(a, b"z" * 32)
        assert heap.space.read(a, 32) == b"z" * 32


class TestFree:
    def test_free_removes_allocation(self, heap):
        a = heap.malloc(16, "t")
        heap.free(a)
        assert heap.allocation_at(a) is None

    def test_double_free_rejected(self, heap):
        a = heap.malloc(16, "t")
        heap.free(a)
        with pytest.raises(HeapError):
            heap.free(a)

    def test_free_foreign_address_rejected(self, heap):
        with pytest.raises(HeapError):
            heap.free(12345)

    def test_free_interior_pointer_rejected(self, heap):
        a = heap.malloc(16, "t")
        with pytest.raises(HeapError):
            heap.free(a + 4)

    def test_freed_space_reused_for_same_size(self, heap):
        a = heap.malloc(24, "t")
        heap.free(a)
        b = heap.malloc(24, "t")
        assert b == a

    def test_freed_space_not_reused_for_other_size(self, heap):
        a = heap.malloc(24, "t")
        heap.free(a)
        b = heap.malloc(48, "t")
        assert b != a


class TestLookup:
    def test_interior_lookup_finds_containing_allocation(self, heap):
        a = heap.malloc(64, "t")
        allocation = heap.allocation_at(a + 63)
        assert allocation is not None and allocation.address == a

    def test_lookup_past_end_misses(self, heap):
        a = heap.malloc(16, "t")
        b = heap.malloc(16, "t")
        # address between a's end and b's start (if any) or inside b
        hit = heap.allocation_at(a + 16)
        assert hit is None or hit.address == b

    def test_base_probe_names_only_a_base(self, heap):
        a = heap.malloc(16, "t")
        assert heap.allocation_based_at(a) is heap.allocation_at(a)
        assert heap.allocation_based_at(a + 15) is None
        assert heap.allocation_based_at(0) is None

    def test_live_allocations_sorted_by_address(self, heap):
        addresses = [heap.malloc(16, "t") for _ in range(10)]
        live = heap.live_allocations
        assert [a.address for a in live] == sorted(addresses)

    def test_live_bytes(self, heap):
        heap.malloc(16, "t")
        heap.malloc(32, "t")
        assert heap.live_bytes == 48


class TestGrowth:
    def test_many_allocations_grow_heap(self, heap):
        addresses = [heap.malloc(1000, "t") for _ in range(200)]
        assert len(set(addresses)) == 200
        for address in addresses:
            assert heap.allocation_based_at(address) is not None

    def test_allocations_never_overlap(self, heap):
        import random
        rng = random.Random(7)
        live = {}
        for _ in range(500):
            if live and rng.random() < 0.4:
                address = rng.choice(list(live))
                heap.free(address)
                del live[address]
            else:
                size = rng.randint(1, 300)
                address = heap.malloc(size, "t")
                live[address] = heap.allocation_at(address).size
        spans = sorted((a, a + s) for a, s in live.items())
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2
