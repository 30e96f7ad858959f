"""Tests for the bounded transitive-closure walker."""

import pytest

from repro.smartrpc.closure import (
    BREADTH_FIRST,
    DEPTH_FIRST,
    ClosureWalker,
)
from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.long_pointer import LongPointer
from repro.workloads.trees import TREE_NODE_TYPE_ID, build_complete_tree


@pytest.fixture
def home(smart_pair):
    """Runtime A with a 15-node tree and an open session."""
    root = build_complete_tree(smart_pair.a, 15)
    state = smart_pair.a.ensure_smart_session("sess", "A")
    return smart_pair.a, state, root


def walker(runtime, state, budget, order=BREADTH_FIRST):
    return ClosureWalker(runtime, state, budget, order=order)


NODE = 16  # bytes per node on the SPARC home


class TestBudget:
    def test_zero_budget_sends_roots_only(self, home):
        runtime, state, root = home
        items = walker(runtime, state, 0).walk([root])
        assert len(items) == 1
        assert items[0] == root

    def test_budget_counts_bytes(self, home):
        runtime, state, root = home
        items = walker(runtime, state, 5 * NODE).walk([root])
        assert len(items) == 5

    def test_budget_larger_than_graph_sends_everything(self, home):
        runtime, state, root = home
        items = walker(runtime, state, 10**6).walk([root])
        assert len(items) == 15

    def test_roots_always_included_even_over_budget(self, home):
        runtime, state, root = home
        # the two children are roots as well
        left = runtime.codec.read_pointer(root)
        right = runtime.codec.read_pointer(root + 4)
        items = walker(runtime, state, 0).walk([root, left, right])
        assert len(items) == 3

    def test_negative_budget_rejected(self, home):
        runtime, state, root = home
        with pytest.raises(SmartRpcError):
            walker(runtime, state, -1)


class TestTraversalOrder:
    def test_bfs_visits_level_by_level(self, home):
        runtime, state, root = home
        items = walker(runtime, state, 7 * NODE).walk([root])
        data = [
            runtime.space.read_raw(address + 8, 8) for address in items
        ]
        indices = [int.from_bytes(d, "big") for d in data]
        assert indices == [0, 1, 2, 3, 4, 5, 6]  # heap order = BFS order

    def test_dfs_dives_deep_first(self, home):
        runtime, state, root = home
        items = walker(runtime, state, 4 * NODE, DEPTH_FIRST).walk([root])
        indices = [
            int.from_bytes(
                runtime.space.read_raw(address + 8, 8), "big"
            )
            for address in items
        ]
        assert indices[0] == 0
        # depth-first from the root follows one branch downward
        assert indices[1] in (1, 2)
        child = indices[1]
        assert indices[2] in (2 * child + 1, 2 * child + 2)

    def test_unknown_order_rejected(self, home):
        runtime, state, root = home
        with pytest.raises(SmartRpcError):
            walker(runtime, state, 0, order="sideways")


class TestSharingAndCycles:
    def test_shared_child_sent_once(self, smart_pair):
        runtime = smart_pair.a
        state = runtime.ensure_smart_session("sess", "A")
        spec = runtime.resolver.resolve(TREE_NODE_TYPE_ID)
        size = spec.sizeof(runtime.arch)
        parent = runtime.heap.malloc(size, TREE_NODE_TYPE_ID)
        shared = runtime.heap.malloc(size, TREE_NODE_TYPE_ID)
        runtime.codec.write_pointer(parent, shared)      # left
        runtime.codec.write_pointer(parent + 4, shared)  # right
        runtime.codec.write_pointer(shared, 0)
        runtime.codec.write_pointer(shared + 4, 0)
        items = walker(runtime, state, 10**6).walk([parent])
        assert len(items) == 2

    def test_cycle_terminates(self, smart_pair):
        runtime = smart_pair.a
        state = runtime.ensure_smart_session("sess", "A")
        spec = runtime.resolver.resolve(TREE_NODE_TYPE_ID)
        size = spec.sizeof(runtime.arch)
        first = runtime.heap.malloc(size, TREE_NODE_TYPE_ID)
        second = runtime.heap.malloc(size, TREE_NODE_TYPE_ID)
        runtime.codec.write_pointer(first, second)
        runtime.codec.write_pointer(second, first)  # cycle
        items = walker(runtime, state, 10**6).walk([first])
        assert len(items) == 2


class TestErrors:
    def test_dangling_root_rejected(self, home):
        runtime, state, root = home
        with pytest.raises(SmartRpcError, match="dead home data at 0x99999"):
            walker(runtime, state, 0).walk([0x99999])

    def test_non_home_root_rejected(self, home):
        """An address of this space's cache of another space's data is
        not home data: the request for it fails."""
        runtime, state, root = home
        entry = state.cache.ensure_entry(
            LongPointer("Z", 0x1000, TREE_NODE_TYPE_ID)
        )
        with pytest.raises(SmartRpcError, match="dead home data"):
            walker(runtime, state, 0).walk([entry.local_address])

    def test_interior_root_rejected(self, home):
        runtime, state, root = home
        with pytest.raises(SmartRpcError, match="dead home data"):
            walker(runtime, state, 0).walk([root + 4])

    def test_pointer_into_foreign_cache_not_traversed(self, smart_pair):
        """A home serves only its own heap; pointers into its cache of a
        third space are left for the requester to chase."""
        runtime = smart_pair.a
        state = runtime.ensure_smart_session("sess", "A")
        spec = runtime.resolver.resolve(TREE_NODE_TYPE_ID)
        size = spec.sizeof(runtime.arch)
        parent = runtime.heap.malloc(size, TREE_NODE_TYPE_ID)
        # cache entry for data homed on Z
        foreign = LongPointer("Z", 0x5000, TREE_NODE_TYPE_ID)
        entry = state.cache.ensure_entry(foreign)
        runtime.codec.write_pointer(parent, entry.local_address)
        runtime.codec.write_pointer(parent + 4, 0)
        items = walker(runtime, state, 10**6).walk([parent])
        assert len(items) == 1  # only the parent is served
