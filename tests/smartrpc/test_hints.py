"""Tests for programmer-supplied closure hints (paper §6)."""

import pytest

from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.hints import ClosureHints
from repro.smartrpc.policy import make_policy
from repro.workloads.hashtable import (
    HASH_NODE_TYPE_ID,
    HASH_OPS,
    HASH_TABLE_TYPE_ID,
    bind_hash_server,
    build_hash_table,
    hash_client,
    value_for,
)
from repro.workloads.traversal import bind_tree_server, tree_client
from repro.workloads.trees import (
    TREE_NODE_TYPE_ID,
    build_complete_tree,
    tree_node_spec,
)
from repro.xdr.arch import SPARC32


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
