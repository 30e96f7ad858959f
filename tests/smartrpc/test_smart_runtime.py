"""Integration tests for the smart runtime's headline behaviours."""

import pytest

from repro.memory.faults import SegmentationError
from repro.rpc.errors import SessionError
from repro.rpc.interface import InterfaceDef, Param, ProcedureDef
from repro.rpc.stubgen import ClientStub, bind_server
from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.policy import make_policy
from repro.smartrpc.runtime import SmartRpcRuntime
from repro.workloads.traversal import (
    TREE_OPS,
    bind_tree_server,
    expected_search_checksum,
    tree_client,
)
from repro.workloads.trees import TREE_NODE_TYPE_ID, build_complete_tree
from repro.xdr.types import PointerType, int32


class TestTransparentDereference:
    def test_remote_search_sees_correct_data(self, smart_pair):
        root = build_complete_tree(smart_pair.a, 31)
        bind_tree_server(smart_pair.b)
        stub = tree_client(smart_pair.a, "B")
        with smart_pair.a.session() as session:
            checksum = stub.search(session, root, 31)
        assert checksum == expected_search_checksum(31, 31)

    def test_partial_search_matches_prefix(self, smart_pair):
        root = build_complete_tree(smart_pair.a, 31)
        bind_tree_server(smart_pair.b)
        stub = tree_client(smart_pair.a, "B")
        with smart_pair.a.session() as session:
            checksum = stub.search(session, root, 10)
        assert checksum == expected_search_checksum(10, 31)

    def test_caching_no_second_transfer(self, smart_pair):
        """The paper's claim: subsequent accesses are local."""
        root = build_complete_tree(smart_pair.a, 31)
        bind_tree_server(smart_pair.b)
        stub = tree_client(smart_pair.a, "B")
        with smart_pair.a.session() as session:
            stub.search(session, root, 31)
            smart_pair.network.stats.reset()
            stub.search(session, root, 31)
            assert smart_pair.network.stats.callbacks == 0

    def test_null_pointer_argument(self, smart_pair):
        bind_tree_server(smart_pair.b)
        stub = tree_client(smart_pair.a, "B")
        with smart_pair.a.session() as session:
            assert stub.search(session, 0, 100) == 0

    def test_pointer_result_is_dereferencable(self, smart_pair):
        """Paper §3.1: B may return a pointer into its own space."""
        interface = InterfaceDef("give", [
            ProcedureDef(
                "make_node", [], returns=PointerType(TREE_NODE_TYPE_ID)
            ),
        ])
        made = {}

        def make_node(ctx):
            address = ctx.runtime.malloc(TREE_NODE_TYPE_ID)
            spec = ctx.runtime.resolver.resolve(TREE_NODE_TYPE_ID)
            view = ctx.struct_view(address, spec)
            view.set("left", 0)
            view.set("right", 0)
            view.set("data", (4321).to_bytes(8, "big"))
            made["address"] = address
            return address

        bind_server(smart_pair.b, interface, {"make_node": make_node})
        stub = ClientStub(smart_pair.a, interface, "B")
        spec = smart_pair.a.resolver.resolve(TREE_NODE_TYPE_ID)
        with smart_pair.a.session() as session:
            pointer = stub.make_node(session)
            from repro.xdr.view import StructView

            view = StructView(
                smart_pair.a.mem, pointer, spec, smart_pair.a.arch
            )
            assert view.get("data") == (4321).to_bytes(8, "big")

    def test_remote_pointer_dies_with_session(self, smart_pair):
        interface = InterfaceDef("give", [
            ProcedureDef(
                "a_node", [], returns=PointerType(TREE_NODE_TYPE_ID)
            ),
        ])

        def a_node(ctx):
            return ctx.runtime.malloc(TREE_NODE_TYPE_ID)

        bind_server(smart_pair.b, interface, {"a_node": a_node})
        stub = ClientStub(smart_pair.a, interface, "B")
        with smart_pair.a.session() as session:
            pointer = stub.a_node(session)
        # After the session the cache page is unmapped: dereferencing
        # the stale ordinary pointer is a segmentation fault.
        with pytest.raises(SegmentationError):
            smart_pair.a.mem.load(pointer, 1)


class TestFigureOneModel:
    def test_nested_rpc_with_callback(self, smart_pair):
        """A -> B -> C -> callback to A, one active thread throughout."""
        runtime_c = smart_pair.add_runtime("C")
        order = []

        hop = InterfaceDef("hop", [
            ProcedureDef("b_step", [Param("x", int32)], returns=int32),
            ProcedureDef("c_step", [Param("x", int32)], returns=int32),
            ProcedureDef("a_step", [Param("x", int32)], returns=int32),
        ])

        def b_step(ctx, x):
            order.append("B")
            return ctx.call("C", "hop.c_step", (x + 1,))

        def c_step(ctx, x):
            order.append("C")
            return ctx.call("A", "hop.a_step", (x + 1,))

        def a_step(ctx, x):
            order.append("A")
            return x + 1

        bind_server(smart_pair.b, hop, {
            "b_step": b_step,
            "c_step": c_step,
            "a_step": a_step,
        })
        bind_server(runtime_c, hop, {
            "b_step": b_step,
            "c_step": c_step,
            "a_step": a_step,
        })
        bind_server(smart_pair.a, hop, {
            "b_step": b_step,
            "c_step": c_step,
            "a_step": a_step,
        })
        stub = ClientStub(smart_pair.a, hop, "B")
        with smart_pair.a.session() as session:
            assert stub.b_step(session, 0) == 3
        assert order == ["B", "C", "A"]

    def test_participants_known_to_ground_after_nesting(self, smart_pair):
        runtime_c = smart_pair.add_runtime("C")
        root = build_complete_tree(smart_pair.a, 3)
        bind_tree_server(runtime_c)
        forward = InterfaceDef("forward", [
            ProcedureDef(
                "via",
                [Param("root", PointerType(TREE_NODE_TYPE_ID))],
                returns=int32,
            ),
        ])

        def via(ctx, root_pointer):
            return ctx.call("C", "tree_ops.search", (root_pointer, 3))

        bind_server(smart_pair.b, forward, {"via": via})
        smart_pair.b.import_interface(TREE_OPS)
        stub = ClientStub(smart_pair.a, forward, "B")
        session = smart_pair.a.session()
        with session:
            stub.via(session, root)
            state = session.state
            assert {"A", "B", "C"} <= state.participants
        # the invalidation reached C even though A never called it
        with pytest.raises(SessionError):
            runtime_c.session_state(session.session_id)


class TestConfiguration:
    def test_negative_closure_size_rejected(self):
        with pytest.raises(SmartRpcError):
            make_policy("fixed", closure_size=-1)

    def test_runtime_takes_only_a_policy(self, network):
        from repro.bench.harness import PROPOSED, make_world
        from repro.xdr.arch import SPARC32

        site = network.add_site("X")
        with pytest.raises(TypeError):
            SmartRpcRuntime(network, site, SPARC32, closure_size=0)
        with pytest.raises(TypeError):
            make_world(PROPOSED, closure_size=0)
        with pytest.raises(SmartRpcError):
            SmartRpcRuntime(network, site, SPARC32, policy=8192)

    def test_closure_size_zero_still_correct(self, network):
        from tests.conftest import SmartPair

        pair = SmartPair(network, make_policy("fixed", closure_size=0))
        root = build_complete_tree(pair.a, 15)
        bind_tree_server(pair.b)
        stub = tree_client(pair.a, "B")
        with pair.a.session() as session:
            assert stub.search(session, root, 15) == (
                expected_search_checksum(15, 15)
            )

    def test_large_closure_single_request(self, network):
        from tests.conftest import SmartPair

        pair = SmartPair(network, make_policy("fixed", closure_size=10**6))
        root = build_complete_tree(pair.a, 63)
        bind_tree_server(pair.b)
        stub = tree_client(pair.a, "B")
        with pair.a.session() as session:
            stub.search(session, root, 63)
        assert network.stats.callbacks == 1

    @pytest.mark.parametrize("strategy", ["single_home", "isolated",
                                          "packed"])
    def test_all_strategies_produce_correct_results(self, network,
                                                    strategy):
        from tests.conftest import SmartPair

        pair = SmartPair(
            network, make_policy("fixed", allocation_strategy=strategy)
        )
        root = build_complete_tree(pair.a, 31)
        bind_tree_server(pair.b)
        stub = tree_client(pair.a, "B")
        with pair.a.session() as session:
            assert stub.search(session, root, 31) == (
                expected_search_checksum(31, 31)
            )

    @pytest.mark.parametrize("order", ["bfs", "dfs"])
    def test_both_closure_orders_correct(self, network, order):
        from tests.conftest import SmartPair

        pair = SmartPair(network, make_policy("fixed", closure_order=order))
        root = build_complete_tree(pair.a, 31)
        bind_tree_server(pair.b)
        stub = tree_client(pair.a, "B")
        with pair.a.session() as session:
            assert stub.search(session, root, 31) == (
                expected_search_checksum(31, 31)
            )
