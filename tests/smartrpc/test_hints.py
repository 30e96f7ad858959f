"""Tests for programmer-supplied closure hints (paper §6)."""

import pytest

from repro.bench.harness import standard_workload_hints
from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.hints import ClosureHints
from repro.smartrpc.policy import make_policy
from repro.workloads.hashtable import (
    HASH_NODE_TYPE_ID,
    HASH_OPS,
    HASH_TABLE_TYPE_ID,
    NUM_BUCKETS,
    bind_hash_server,
    build_hash_table,
    hash_client,
    hash_node_spec,
    hash_table_spec,
    value_for,
)
from repro.workloads.traversal import bind_tree_server, tree_client
from repro.workloads.trees import (
    TREE_NODE_TYPE_ID,
    build_complete_tree,
    tree_node_spec,
)
from repro.xdr.arch import ALPHA64, SPARC32, X86_64
from repro.xdr.types import (
    ArrayType,
    Field,
    OpaqueType,
    PointerType,
    StructType,
    int8,
    int16,
    int64,
)


class TestHintResolution:
    def test_unhinted_type_returns_none(self):
        hints = ClosureHints()
        assert hints.pointer_offsets(
            TREE_NODE_TYPE_ID, tree_node_spec(), SPARC32
        ) is None

    def test_leaf_hint_returns_empty(self):
        hints = ClosureHints()
        hints.follow(TREE_NODE_TYPE_ID, [])
        assert hints.pointer_offsets(
            TREE_NODE_TYPE_ID, tree_node_spec(), SPARC32
        ) == []

    def test_field_subset_resolves_offsets(self):
        hints = ClosureHints()
        hints.follow(TREE_NODE_TYPE_ID, ["right"])
        offsets = hints.pointer_offsets(
            TREE_NODE_TYPE_ID, tree_node_spec(), SPARC32
        )
        assert offsets == [4]  # right pointer on SPARC32

    def test_hint_order_respected(self):
        hints = ClosureHints()
        hints.follow(TREE_NODE_TYPE_ID, ["right", "left"])
        offsets = hints.pointer_offsets(
            TREE_NODE_TYPE_ID, tree_node_spec(), SPARC32
        )
        assert offsets == [4, 0]

    def test_unknown_field_rejected(self):
        hints = ClosureHints()
        hints.follow(TREE_NODE_TYPE_ID, ["middle"])
        with pytest.raises(Exception):
            hints.pointer_offsets(
                TREE_NODE_TYPE_ID, tree_node_spec(), SPARC32
            )

    def test_pointerless_field_rejected(self):
        hints = ClosureHints()
        hints.follow(TREE_NODE_TYPE_ID, ["data"])
        with pytest.raises(SmartRpcError):
            hints.pointer_offsets(
                TREE_NODE_TYPE_ID, tree_node_spec(), SPARC32
            )


#: Two pointers around a scalar, held by value in ``MIXED``.
PAIR = StructType("pair", [
    Field("tag", int8),
    Field("first", PointerType("leaf")),
    Field("weight", int64),
    Field("second", PointerType("leaf")),
])
#: Each pointer-bearing field ends where the next pointer starts, so an
#: offset taken one past a field's span shows.
MIXED = StructType("mixed", [
    Field("flags", int16),
    Field("pair", PAIR),
    Field("slots", ArrayType(PointerType("leaf"), 3)),
    Field("next", PointerType("mixed")),
    Field("name", OpaqueType(3)),
    Field("count", int8),
])


class TestHintOffsetsThroughThePlan:
    """The offsets a hint resolves to, written out per architecture:
    hint order across fields, address order within one."""

    @pytest.mark.parametrize("arch, fields, expected", [
        (SPARC32, ["next", "slots", "pair"], [44, 32, 36, 40, 12, 24]),
        (X86_64, ["next", "slots", "pair"], [64, 40, 48, 56, 16, 32]),
        (ALPHA64, ["next", "slots", "pair"], [64, 40, 48, 56, 16, 32]),
        (SPARC32, ["slots"], [32, 36, 40]),
        (X86_64, ["pair", "next"], [16, 32, 64]),
        (ALPHA64, ["slots", "next"], [40, 48, 56, 64]),
    ], ids=lambda value: getattr(value, "name", None))
    def test_by_value_struct_array_and_plain_pointer(
        self, arch, fields, expected
    ):
        hints = ClosureHints()
        hints.follow("mixed", fields)
        assert hints.pointer_offsets("mixed", MIXED, arch) == expected

    @pytest.mark.parametrize(
        "arch", [SPARC32, X86_64, ALPHA64], ids=lambda arch: arch.name
    )
    def test_workload_hints(self, arch):
        width = arch.pointer_size
        hints = standard_workload_hints()
        assert hints.pointer_offsets(
            HASH_TABLE_TYPE_ID, hash_table_spec(), arch
        ) == []
        assert hints.pointer_offsets(
            HASH_NODE_TYPE_ID, hash_node_spec(), arch
        ) == [0]
        hints.follow(HASH_TABLE_TYPE_ID, ["buckets"])
        hints.follow(TREE_NODE_TYPE_ID, ["right", "left"])
        assert hints.pointer_offsets(
            HASH_TABLE_TYPE_ID, hash_table_spec(), arch
        ) == list(range(0, NUM_BUCKETS * width, width))
        assert hints.pointer_offsets(
            TREE_NODE_TYPE_ID, tree_node_spec(), arch
        ) == [width, 0]


class TestHintedTransfers:
    def _hash_world(self, network, hints):
        from tests.conftest import SmartPair

        # Hints steer the closure; page-grain sibling fills can mask
        # them, so the sparse-access demonstration pairs them with
        # isolated placeholder allocation.
        pair = SmartPair(
            network,
            make_policy(
                "paper", closure_hints=hints, allocation_strategy="isolated"
            ),
        )
        table, _ = build_hash_table(pair.a, list(range(600)))
        bind_hash_server(pair.b)
        pair.a.import_interface(HASH_OPS)
        return pair, table

    def test_hash_hints_cut_prefetch_waste(self, network):
        hints = ClosureHints()
        hints.follow(HASH_TABLE_TYPE_ID, [])
        hints.follow(HASH_NODE_TYPE_ID, ["next"])
        pair, table = self._hash_world(network, hints)
        stub = hash_client(pair.a, "B")
        with pair.a.session() as session:
            found = stub.lookup(session, table, 42)
        assert found == int.from_bytes(value_for(42)[8:], "big")
        hinted_bytes = network.stats.total_bytes
        hinted_entries = network.stats.entries_transferred

        from repro.simnet.network import Network

        plain_network = Network()
        plain_pair, plain_table = self._hash_world(plain_network, None)
        plain_stub = hash_client(plain_pair.a, "B")
        with plain_pair.a.session() as session:
            plain_stub.lookup(session, plain_table, 42)
        assert hinted_bytes < plain_network.stats.total_bytes / 2
        assert hinted_entries < plain_network.stats.entries_transferred

    def test_tree_search_still_correct_under_misleading_hints(
        self, network
    ):
        """Hints change prefetching, never correctness: a wrong hint
        just causes extra faults."""
        hints = ClosureHints()
        hints.follow(TREE_NODE_TYPE_ID, ["right"])  # search goes left!
        from tests.conftest import SmartPair

        pair = SmartPair(network, make_policy("paper", closure_hints=hints))
        root = build_complete_tree(pair.a, 31)
        bind_tree_server(pair.b)
        stub = tree_client(pair.a, "B")
        with pair.a.session() as session:
            assert stub.search(session, root, 31) == sum(range(31))

    def test_leaf_hint_degrades_to_lazy(self, network):
        hints = ClosureHints()
        hints.follow(TREE_NODE_TYPE_ID, [])
        from tests.conftest import SmartPair

        pair = SmartPair(network, make_policy("paper", closure_hints=hints))
        root = build_complete_tree(pair.a, 15)
        bind_tree_server(pair.b)
        stub = tree_client(pair.a, "B")
        with pair.a.session() as session:
            stub.search(session, root, 15)
        # No prefetch beyond page fills: many more callbacks than the
        # single request an 8K closure would need for 15 nodes.
        assert network.stats.callbacks >= 7
