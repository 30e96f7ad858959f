"""Tests for pointer swizzling and unswizzling."""

import pytest

from repro.smartrpc.errors import DanglingPointerError, SwizzleError
from repro.smartrpc.long_pointer import LongPointer
from repro.workloads.trees import TREE_NODE_TYPE_ID


@pytest.fixture
def state(smart_pair):
    return smart_pair.b.ensure_smart_session("sess", "A")


class TestUnswizzle:
    def test_null_pointer(self, state):
        assert state.swizzler.unswizzle(0) is None

    def test_local_heap_allocation(self, smart_pair, state):
        address = smart_pair.b.malloc(TREE_NODE_TYPE_ID)
        pointer = state.swizzler.unswizzle(address)
        assert pointer == LongPointer("B", address, TREE_NODE_TYPE_ID)

    def test_cache_entry_returns_original_long_pointer(self, state):
        remote = LongPointer("A", 0x1000, TREE_NODE_TYPE_ID)
        entry = state.cache.ensure_entry(remote)
        assert state.swizzler.unswizzle(entry.local_address) == remote

    def test_interior_pointer_into_cache_rejected(self, state):
        remote = LongPointer("A", 0x1000, TREE_NODE_TYPE_ID)
        entry = state.cache.ensure_entry(remote)
        with pytest.raises(SwizzleError):
            state.swizzler.unswizzle(entry.local_address + 4)

    def test_interior_pointer_into_heap_rejected(self, smart_pair, state):
        address = smart_pair.b.malloc(TREE_NODE_TYPE_ID)
        with pytest.raises(SwizzleError):
            state.swizzler.unswizzle(address + 4)

    def test_wild_pointer_rejected(self, state):
        with pytest.raises(SwizzleError):
            state.swizzler.unswizzle(0xDEAD0000)

    def test_freed_heap_pointer_rejected(self, smart_pair, state):
        address = smart_pair.b.malloc(TREE_NODE_TYPE_ID)
        smart_pair.b.heap.free(address)
        with pytest.raises(SwizzleError):
            state.swizzler.unswizzle(address)


class TestSwizzle:
    def test_null(self, state):
        assert state.swizzler.swizzle(None) == 0

    def test_remote_pointer_allocates_placeholder(self, state):
        remote = LongPointer("A", 0x1000, TREE_NODE_TYPE_ID)
        local = state.swizzler.swizzle(remote)
        entry = state.cache.entry_for(remote)
        assert entry is not None and entry.local_address == local

    def test_swizzle_is_cached(self, state):
        remote = LongPointer("A", 0x1000, TREE_NODE_TYPE_ID)
        assert state.swizzler.swizzle(remote) == state.swizzler.swizzle(
            remote
        )

    def test_home_pointer_is_original_address(self, smart_pair):
        state_a = smart_pair.a.ensure_smart_session("sess", "A")
        address = smart_pair.a.malloc(TREE_NODE_TYPE_ID)
        pointer = LongPointer("A", address, TREE_NODE_TYPE_ID)
        assert state_a.swizzler.swizzle(pointer) == address

    def test_home_pointer_to_dead_data_rejected(self, smart_pair):
        state_a = smart_pair.a.ensure_smart_session("sess", "A")
        address = smart_pair.a.malloc(TREE_NODE_TYPE_ID)
        smart_pair.a.heap.free(address)
        pointer = LongPointer("A", address, TREE_NODE_TYPE_ID)
        with pytest.raises(DanglingPointerError):
            state_a.swizzler.swizzle(pointer)

    def test_interior_home_pointer_rejected(self, smart_pair):
        # A long pointer names an allocation base: one into the middle
        # of a home node must not swizzle to an address inside it.
        state_a = smart_pair.a.ensure_smart_session("sess", "A")
        address = smart_pair.a.malloc(TREE_NODE_TYPE_ID)
        smart_pair.a.malloc(TREE_NODE_TYPE_ID)
        pointer = LongPointer("A", address + 8, TREE_NODE_TYPE_ID)
        with pytest.raises(SwizzleError, match="interior"):
            state_a.swizzler.swizzle(pointer)

    def test_round_trip_remote(self, state):
        remote = LongPointer("A", 0x1000, TREE_NODE_TYPE_ID)
        local = state.swizzler.swizzle(remote)
        assert state.swizzler.unswizzle(local) == remote
