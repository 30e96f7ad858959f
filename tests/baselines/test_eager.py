"""Tests for the fully eager baseline: the smart runtime under the
``graphcopy`` policy (deep-copy marshalling)."""

import pytest

from repro.namesvc.client import TypeResolver
from repro.namesvc.server import TypeNameServer
from repro.rpc.errors import MarshalError, RpcRemoteError
from repro.rpc.interface import InterfaceDef, Param, ProcedureDef
from repro.rpc.stubgen import ClientStub, bind_server
from repro.smartrpc.runtime import SmartRpcRuntime
from repro.workloads.traversal import (
    bind_tree_server,
    expected_search_checksum,
    tree_client,
)
from repro.workloads.trees import (
    TREE_NODE_TYPE_ID,
    build_complete_tree,
    register_tree_types,
)
from repro.workloads.linked_list import (
    LIST_NODE_TYPE_ID,
    build_list,
    register_list_types,
)
from repro.xdr.arch import SPARC32, X86_64
from repro.xdr.registry import TypeRegistry
from repro.xdr.types import PointerType, int32, int64


@pytest.fixture
def pair(network):
    TypeNameServer(network.add_site("NS"), TypeRegistry())
    runtimes = []
    for site_id, arch in (("A", SPARC32), ("B", X86_64)):
        site = network.add_site(site_id)
        runtime = SmartRpcRuntime(
            network,
            site,
            arch,
            resolver=TypeResolver(site, "NS"),
            policy="graphcopy",
        )
        register_tree_types(runtime)
        register_list_types(runtime)
        runtimes.append(runtime)
    return network, runtimes[0], runtimes[1]


class TestDeepCopy:
    def test_whole_tree_copied_and_searched(self, pair):
        network, a, b = pair
        root = build_complete_tree(a, 15)
        bind_tree_server(b)
        stub = tree_client(a, "B")
        with a.session() as session:
            assert stub.search(session, root, 15) == (
                expected_search_checksum(15, 15)
            )

    def test_whole_tree_ships_regardless_of_ratio(self, pair):
        network, a, b = pair
        root = build_complete_tree(a, 15)
        bind_tree_server(b)
        stub = tree_client(a, "B")
        with a.session() as session:
            stub.search(session, root, 1)
        # 15 nodes materialised on the callee despite visiting 1.
        assert network.stats.entries_transferred == 15
        assert network.stats.callbacks == 0

    def test_callee_gets_private_copy(self, pair):
        """Eager semantics: callee modifications do NOT reach home."""
        network, a, b = pair
        root = build_complete_tree(a, 3)
        bind_tree_server(b)
        stub = tree_client(a, "B")
        with a.session() as session:
            stub.search_update(session, root, 3)
        spec = a.resolver.resolve(TREE_NODE_TYPE_ID)
        layout = spec.layout(a.arch)
        data = a.space.read_raw(root + layout.offsets["data"], 8)
        assert int.from_bytes(data, "big") == 0  # original untouched

    def test_null_pointer(self, pair):
        network, a, b = pair
        bind_tree_server(b)
        stub = tree_client(a, "B")
        with a.session() as session:
            assert stub.search(session, 0, 5) == 0

    def test_shared_structure_preserved(self, pair):
        """A DAG is copied with sharing intact, not duplicated."""
        network, a, b = pair
        spec = a.resolver.resolve(TREE_NODE_TYPE_ID)
        size = spec.sizeof(a.arch)
        parent = a.heap.malloc(size, TREE_NODE_TYPE_ID)
        shared = a.heap.malloc(size, TREE_NODE_TYPE_ID)
        a.codec.write_pointer(parent, shared)
        a.codec.write_pointer(parent + 4, shared)
        a.codec.write_pointer(shared, 0)
        a.codec.write_pointer(shared + 4, 0)
        a.space.write_raw(shared + 8, (5).to_bytes(8, "big"))

        probe = InterfaceDef("probe", [
            ProcedureDef(
                "children_identical",
                [Param("root", PointerType(TREE_NODE_TYPE_ID))],
                returns=int32,
            ),
        ])

        def children_identical(ctx, root):
            view = ctx.struct_view(
                root, ctx.runtime.resolver.resolve(TREE_NODE_TYPE_ID)
            )
            return 1 if view.get("left") == view.get("right") else 0

        bind_server(b, probe, {"children_identical": children_identical})
        stub = ClientStub(a, probe, "B")
        with a.session() as session:
            assert stub.children_identical(session, parent) == 1

    def test_cyclic_structure_copied(self, pair):
        network, a, b = pair
        spec = a.resolver.resolve(LIST_NODE_TYPE_ID)
        size = spec.sizeof(a.arch)
        first = a.heap.malloc(size, LIST_NODE_TYPE_ID)
        second = a.heap.malloc(size, LIST_NODE_TYPE_ID)
        a.codec.write_pointer(first, second)
        a.codec.write_pointer(second, first)  # a 2-cycle

        ring = InterfaceDef("ring", [
            ProcedureDef(
                "loop_length",
                [Param("head", PointerType(LIST_NODE_TYPE_ID))],
                returns=int32,
            ),
        ])

        def loop_length(ctx, head):
            spec_b = ctx.runtime.resolver.resolve(LIST_NODE_TYPE_ID)
            seen = set()
            address = head
            while address not in seen and address != 0:
                seen.add(address)
                address = ctx.struct_view(address, spec_b).get("next")
            return len(seen)

        bind_server(b, ring, {"loop_length": loop_length})
        stub = ClientStub(a, ring, "B")
        with a.session() as session:
            assert stub.loop_length(session, first) == 2

    def test_pointer_result_copies_back(self, pair):
        network, a, b = pair
        give = InterfaceDef("give", [
            ProcedureDef(
                "fresh_list", [], returns=PointerType(LIST_NODE_TYPE_ID)
            ),
        ])

        def fresh_list(ctx):
            from repro.workloads.linked_list import build_list as bl

            return bl(ctx.runtime, [7, 8, 9])

        bind_server(b, give, {"fresh_list": fresh_list})
        stub = ClientStub(a, give, "B")
        with a.session() as session:
            head = stub.fresh_list(session)
        from repro.workloads.linked_list import read_list

        assert read_list(a, head) == [7, 8, 9]

    def test_wild_pointer_argument_rejected(self, pair):
        network, a, b = pair
        bind_tree_server(b)
        stub = tree_client(a, "B")
        with a.session() as session:
            with pytest.raises(MarshalError):
                stub.search(session, 0xABCDEF, 1)
