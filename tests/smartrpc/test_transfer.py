"""Tests for the data-plane batch protocol."""

from dataclasses import replace

import pytest

from repro.smartrpc import transfer
from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.long_pointer import LongPointer
from repro.workloads.trees import TREE_NODE_TYPE_ID, build_complete_tree
from repro.xdr.types import (
    ArrayType,
    EnumType,
    Field,
    OpaqueType,
    PointerType,
    StructType,
    UnionType,
    int32,
)
from tests.xdr.reference_codec import Item


@pytest.fixture
def worlds(smart_pair):
    """A home (A) with a 7-node tree and a callee state on B."""
    root = build_complete_tree(smart_pair.a, 7)
    state_a = smart_pair.a.ensure_smart_session("sess", "A")
    state_b = smart_pair.b.ensure_smart_session("sess", "A")
    return smart_pair, root, state_a, state_b


def home_items(runtime, state, addresses):
    return [
        Item(LongPointer("A", address, TREE_NODE_TYPE_ID), address)
        for address in addresses
    ]


class TestBatchRoundTrip:
    def test_apply_installs_data_and_placeholders(self, worlds):
        pair, root, state_a, state_b = worlds
        batch = transfer.encode_batch(
            pair.a, state_a, home_items(pair.a, state_a, [root])
        )
        applied = transfer.apply_batch(pair.b, state_b, batch, False)
        assert applied == 1
        root_entry = state_b.cache.table.entry_for(
            LongPointer("A", root, TREE_NODE_TYPE_ID)
        )
        assert root_entry is not None and root_entry.resident
        # The root's two children were swizzled into placeholders.
        assert len(state_b.cache.table) == 3

    def test_data_decoded_into_callee_layout(self, worlds):
        pair, root, state_a, state_b = worlds
        batch = transfer.encode_batch(
            pair.a, state_a, home_items(pair.a, state_a, [root])
        )
        transfer.apply_batch(pair.b, state_b, batch, False)
        entry = state_b.cache.table.entry_for(
            LongPointer("A", root, TREE_NODE_TYPE_ID)
        )
        spec = pair.b.resolver.resolve(TREE_NODE_TYPE_ID)
        layout = spec.layout(pair.b.arch)
        data = pair.b.space.read_raw(
            entry.local_address + layout.offsets["data"], 8
        )
        assert int.from_bytes(data, "big") == 0  # root holds index 0

    def test_resident_duplicate_skipped_without_overwrite(self, worlds):
        pair, root, state_a, state_b = worlds
        batch = transfer.encode_batch(
            pair.a, state_a, home_items(pair.a, state_a, [root])
        )
        transfer.apply_batch(pair.b, state_b, batch, False)
        before = pair.network.stats.duplicate_entries
        applied = transfer.apply_batch(pair.b, state_b, batch, False)
        assert applied == 0
        assert pair.network.stats.duplicate_entries == before + 1

    def test_overwrite_refreshes_resident_data(self, worlds):
        pair, root, state_a, state_b = worlds
        items = home_items(pair.a, state_a, [root])
        batch = transfer.encode_batch(pair.a, state_a, items)
        transfer.apply_batch(pair.b, state_b, batch, False)
        # mutate the home original, re-ship with overwrite
        spec = pair.a.resolver.resolve(TREE_NODE_TYPE_ID)
        layout = spec.layout(pair.a.arch)
        pair.a.space.write_raw(
            root + layout.offsets["data"], (99).to_bytes(8, "big")
        )
        batch2 = transfer.encode_batch(pair.a, state_a, items)
        transfer.apply_batch(pair.b, state_b, batch2, True)
        entry = state_b.cache.table.entry_for(
            LongPointer("A", root, TREE_NODE_TYPE_ID)
        )
        b_layout = pair.b.resolver.resolve(TREE_NODE_TYPE_ID).layout(
            pair.b.arch
        )
        data = pair.b.space.read_raw(
            entry.local_address + b_layout.offsets["data"], 8
        )
        assert int.from_bytes(data, "big") == 99

    def test_overwrite_joins_relayed_dirty_set(self, worlds):
        pair, root, state_a, state_b = worlds
        batch = transfer.encode_batch(
            pair.a, state_a, home_items(pair.a, state_a, [root])
        )
        transfer.apply_batch(pair.b, state_b, batch, True)
        entry = state_b.cache.table.entry_for(
            LongPointer("A", root, TREE_NODE_TYPE_ID)
        )
        assert entry in state_b.relayed_dirty

    def test_home_receiving_batch_updates_original(self, worlds):
        pair, root, state_a, state_b = worlds
        # B receives the root, then ships it back modified: A's
        # original must change.
        batch = transfer.encode_batch(
            pair.a, state_a, home_items(pair.a, state_a, [root])
        )
        transfer.apply_batch(pair.b, state_b, batch, False)
        entry = state_b.cache.table.entry_for(
            LongPointer("A", root, TREE_NODE_TYPE_ID)
        )
        spec_b = pair.b.resolver.resolve(TREE_NODE_TYPE_ID)
        layout_b = spec_b.layout(pair.b.arch)
        pair.b.space.write_raw(
            entry.local_address + layout_b.offsets["data"],
            (1234).to_bytes(8, "big"),
        )
        back = transfer.encode_batch(pair.b, state_b, [entry])
        transfer.apply_batch(pair.a, state_a, back, True)
        spec_a = pair.a.resolver.resolve(TREE_NODE_TYPE_ID)
        layout_a = spec_a.layout(pair.a.arch)
        data = pair.a.space.read_raw(root + layout_a.offsets["data"], 8)
        assert int.from_bytes(data, "big") == 1234

    def test_batch_updating_dead_home_data_rejected(self, worlds):
        pair, root, state_a, state_b = worlds
        address = pair.a.malloc(TREE_NODE_TYPE_ID)
        item = Item(LongPointer("A", address, TREE_NODE_TYPE_ID), address)
        batch = transfer.encode_batch(pair.a, state_a, [item])
        pair.a.heap.free(address)
        with pytest.raises(SmartRpcError):
            transfer.apply_batch(pair.a, state_a, batch, True)

    def test_batch_naming_an_interior_home_address_rejected(self, worlds):
        # An item at n0 + 8 would write n0's tail and the head of the
        # adjacent n1: the home must refuse it and leave both intact.
        pair, root, state_a, state_b = worlds
        n0 = pair.a.malloc(TREE_NODE_TYPE_ID)
        n1 = pair.a.malloc(TREE_NODE_TYPE_ID)
        assert n1 == n0 + 16
        pair.a.space.write_raw(n1, bytes(range(1, 9)))
        before = pair.a.space.read_raw(n0, 32)
        spec_b = pair.b.resolver.resolve(TREE_NODE_TYPE_ID)
        local = pair.b.malloc(TREE_NODE_TYPE_ID)
        data = spec_b.layout(pair.b.arch).offsets["data"]
        pair.b.space.write_raw(local + data, b"\xff" * 8)
        item = Item(LongPointer("A", n0 + 8, TREE_NODE_TYPE_ID), local)
        batch = transfer.encode_batch(pair.b, state_b, [item])
        with pytest.raises(SmartRpcError, match="batch updates dead home"):
            transfer.apply_batch(pair.a, state_a, batch, True)
        assert pair.a.space.read_raw(n0, 32) == before


#: A union inside makes a datum take the hook-driven codec, so a
#: duplicate copy of one is consumed by ``transfer._skip``.
COLOR = EnumType("color", {"RED": 0, "GREEN": 1})
SKIPPED = StructType("skipped", [
    Field("a", int32),
    Field("p", PointerType(TREE_NODE_TYPE_ID)),
    Field("o", OpaqueType(6)),
    Field("u", UnionType("u", COLOR, {"RED": int32, "GREEN": int32})),
    Field("arr", ArrayType(int32, 2)),
])


class TestSkipValue:
    def test_duplicate_skip_consumes_exact_bytes(self, worlds):
        pair, root, state_a, state_b = worlds
        for runtime in (pair.a, pair.b):
            runtime.resolver.register("skipped", SKIPPED)
        address = pair.a.heap.malloc(SKIPPED.sizeof(pair.a.arch), "skipped")
        layout = SKIPPED.layout(pair.a.arch)
        pair.a.codec.write_pointer(address + layout.offsets["p"], root)
        datum = Item(LongPointer("A", address, "skipped"), address)
        first = transfer.encode_batch(pair.a, state_a, [datum])
        assert transfer.apply_batch(pair.b, state_b, first, False) == 1
        rows = len(state_b.cache.table)  # the datum and the root it names
        # The resident datum again, then the root: the skip must stop
        # exactly where the root's item starts, swizzling nothing.
        second = transfer.encode_batch(
            pair.a, state_a, [datum] + home_items(pair.a, state_a, [root])
        )
        duplicates = pair.b.stats.duplicate_entries
        assert transfer.apply_batch(pair.b, state_b, second, False) == 1
        assert pair.b.stats.duplicate_entries == duplicates + 1
        root_entry = state_b.cache.table.entry_for(
            LongPointer("A", root, TREE_NODE_TYPE_ID)
        )
        assert root_entry.resident
        assert len(state_b.cache.table) == rows + 2  # the root's children

    def test_skip_does_not_swizzle(self, worlds):
        pair, root, state_a, state_b = worlds
        batch = transfer.encode_batch(
            pair.a, state_a, home_items(pair.a, state_a, [root])
        )
        transfer.apply_batch(pair.b, state_b, batch, False)
        entries_before = len(state_b.cache.table)
        transfer.apply_batch(pair.b, state_b, batch, False)  # all dup
        assert len(state_b.cache.table) == entries_before


class TestRequestProtocol:
    def test_request_fetches_and_counts_callback(self, worlds):
        pair, root, state_a, state_b = worlds
        pointer = LongPointer("A", root, TREE_NODE_TYPE_ID)
        state_b.cache.ensure_entry(pointer)
        before = pair.network.stats.callbacks
        applied = transfer.request_data(pair.b, state_b, "A", [pointer])
        assert applied >= 1
        assert pair.network.stats.callbacks == before + 1
        assert state_b.cache.table.entry_for(pointer).resident

    def test_request_with_closure_prefetches(self, worlds):
        pair, root, state_a, state_b = worlds
        state_b.policy = replace(state_b.policy, closure_size=16 * 7)
        pointer = LongPointer("A", root, TREE_NODE_TYPE_ID)
        state_b.cache.ensure_entry(pointer)
        applied = transfer.request_data(pair.b, state_b, "A", [pointer])
        assert applied == 7

    def test_request_to_wrong_home_rejected(self, worlds):
        pair, root, state_a, state_b = worlds
        pointer = LongPointer("A", root, TREE_NODE_TYPE_ID)
        with pytest.raises(SmartRpcError):
            transfer.request_data(pair.b, state_b, "NS", [pointer])

    def test_request_for_dead_data_reports_error(self, worlds):
        pair, root, state_a, state_b = worlds
        address = pair.a.malloc(TREE_NODE_TYPE_ID)
        pointer = LongPointer("A", address, TREE_NODE_TYPE_ID)
        pair.a.heap.free(address)
        with pytest.raises(SmartRpcError) as info:
            transfer.request_data(pair.b, state_b, "A", [pointer])
        assert "dead home data" in str(info.value)
