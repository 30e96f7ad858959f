"""Tests for the fully lazy baseline (callback per dereference).

The lazy method is no longer a class of its own: it is the smart
runtime under the ``lazy`` transfer policy (closure budget 0, isolated
placeholder pages), so these tests pin down that the degenerate policy
point still behaves like the paper's §2 lazy system.
"""

from dataclasses import FrozenInstanceError

import pytest

from repro.namesvc.client import TypeResolver
from repro.namesvc.server import TypeNameServer
from repro.smartrpc.policy import make_policy
from repro.smartrpc.runtime import SmartRpcRuntime
from repro.workloads.traversal import (
    bind_tree_server,
    expected_search_checksum,
    tree_client,
)
from repro.workloads.trees import (
    build_complete_tree,
    register_tree_types,
)
from repro.xdr.arch import SPARC32
from repro.xdr.registry import TypeRegistry


@pytest.fixture
def pair(network):
    TypeNameServer(network.add_site("NS"), TypeRegistry())
    runtimes = []
    for site_id in ("A", "B"):
        site = network.add_site(site_id)
        runtime = SmartRpcRuntime(
            network,
            site,
            SPARC32,
            resolver=TypeResolver(site, "NS"),
            policy="lazy",
        )
        register_tree_types(runtime)
        runtimes.append(runtime)
    return network, runtimes[0], runtimes[1]


class TestCallbackPerDereference:
    def test_search_is_correct(self, pair):
        network, a, b = pair
        root = build_complete_tree(a, 15)
        bind_tree_server(b)
        stub = tree_client(a, "B")
        with a.session() as session:
            assert stub.search(session, root, 15) == (
                expected_search_checksum(15, 15)
            )

    def test_one_callback_per_visited_node(self, pair):
        """Figure 5's lazy line: callbacks == visited nodes."""
        network, a, b = pair
        root = build_complete_tree(a, 31)
        bind_tree_server(b)
        stub = tree_client(a, "B")
        with a.session() as session:
            stub.search(session, root, 20)
        assert network.stats.callbacks == 20

    def test_no_eager_prefetch(self, pair):
        network, a, b = pair
        root = build_complete_tree(a, 31)
        bind_tree_server(b)
        stub = tree_client(a, "B")
        with a.session() as session:
            stub.search(session, root, 1)
        assert network.stats.entries_transferred == 1

    def test_zero_prefetched_closure_bytes(self, pair):
        """The SRPC301 obligation: a lazy run ships no closure bytes
        beyond the demanded data."""
        network, a, b = pair
        root = build_complete_tree(a, 31)
        bind_tree_server(b)
        stub = tree_client(a, "B")
        with a.session() as session:
            stub.search(session, root, 20)
        ledger = network.stats.transfer_ledger
        assert ledger.prefetch_bytes_shipped == 0
        assert ledger.closure_bytes_shipped > 0

    def test_cached_after_first_dereference(self, pair):
        network, a, b = pair
        root = build_complete_tree(a, 15)
        bind_tree_server(b)
        stub = tree_client(a, "B")
        with a.session() as session:
            stub.search(session, root, 15)
            callbacks = network.stats.callbacks
            stub.search(session, root, 15)
            assert network.stats.callbacks == callbacks

    def test_configuration_is_lazy_extreme(self, pair):
        network, a, b = pair
        assert b.policy.declared_budget == 0
        assert b.policy.allocation_strategy == "isolated"
        assert b.policy.name == "lazy"

    def test_lazy_budget_cannot_be_overridden(self, pair):
        network, a, b = pair
        from repro.smartrpc.errors import SmartRpcError

        with pytest.raises(SmartRpcError):
            make_policy("lazy", closure_size=4096)
        with pytest.raises(FrozenInstanceError):
            b.policy.closure_size = 4096

    def test_updates_write_back_like_smart_runtime(self, pair):
        """Lazy is the smart machinery at a degenerate point, so the
        coherency protocol still applies."""
        network, a, b = pair
        root = build_complete_tree(a, 7)
        bind_tree_server(b)
        stub = tree_client(a, "B")
        with a.session() as session:
            stub.search_update(session, root, 7)
        spec = a.resolver.resolve("tree_node")
        layout = spec.layout(a.arch)
        data = a.space.read_raw(root + layout.offsets["data"], 8)
        assert int.from_bytes(data, "big") == 1
