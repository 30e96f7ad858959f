"""Tests for the cyclic-graph workload."""

import pytest

from repro.bench.harness import FULLY_EAGER, FULLY_LAZY, PROPOSED
from repro.xdr.arch import SPARC32, X86_64
from tests.workloads.graphs import (
    GRAPH_OPS,
    bind_graph_server,
    build_random_graph,
    graph_client,
    graph_node_spec,
    local_reachable_weight,
    register_graph_types,
)


@pytest.fixture
def served(smart_pair):
    for runtime in (smart_pair.a, smart_pair.b):
        register_graph_types(runtime)
    bind_graph_server(smart_pair.b)
    smart_pair.a.import_interface(GRAPH_OPS)
    return smart_pair, graph_client(smart_pair.a, "B")


class TestBuilder:
    def test_deterministic_for_seed(self, smart_pair):
        register_graph_types(smart_pair.a)
        first = build_random_graph(smart_pair.a, 20, seed=3)
        total_one = local_reachable_weight(smart_pair.a, first[0])
        second = build_random_graph(smart_pair.a, 20, seed=3)
        total_two = local_reachable_weight(smart_pair.a, second[0])
        assert total_one == total_two

    def test_node_layout(self):
        spec = graph_node_spec()
        assert spec.sizeof(SPARC32) == 3 * 4 + 4 + 8  # padded to 8
        assert spec.sizeof(X86_64) == 3 * 8 + 8


class TestRemoteTraversal:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_remote_weight_matches_local_reference(self, served, seed):
        pair, stub = served
        nodes = build_random_graph(pair.a, 40, seed=seed)
        expected = local_reachable_weight(pair.a, nodes[0])
        with pair.a.session() as session:
            assert stub.reachable_weight(session, nodes[0]) == expected

    def test_cycles_terminate_remotely(self, served):
        pair, stub = served
        # Force a tight cycle: node0 -> node1 -> node0.
        spec = pair.a.resolver.resolve("graph_node")
        size = spec.sizeof(pair.a.arch)
        layout = spec.layout(pair.a.arch)
        first = pair.a.heap.malloc(size, "graph_node")
        second = pair.a.heap.malloc(size, "graph_node")
        for address, target, weight in (
            (first, second, 10),
            (second, first, 5),
        ):
            pair.a.codec.write_pointer(
                address + layout.offsets["edges"], target
            )
            for slot in (1, 2):
                pair.a.codec.write_pointer(
                    address + layout.offsets["edges"] + slot * 4, 0
                )
            pair.a.space.write_raw(
                address + layout.offsets["weight"],
                weight.to_bytes(8, pair.a.arch.byteorder, signed=True),
            )
        with pair.a.session() as session:
            assert stub.reachable_weight(session, first) == 15
            assert stub.reachable_count(session, first) == 2

    def test_shared_children_fetched_once(self, served):
        pair, stub = served
        nodes = build_random_graph(pair.a, 60, seed=9)
        with pair.a.session() as session:
            stub.reachable_count(session, nodes[0])
        # Entries transferred never exceeds distinct nodes + start dup
        assert pair.network.stats.entries_transferred <= 60

    def test_second_traversal_cached(self, served):
        pair, stub = served
        nodes = build_random_graph(pair.a, 30, seed=4)
        with pair.a.session() as session:
            stub.reachable_count(session, nodes[0])
            callbacks = pair.network.stats.callbacks
            stub.reachable_weight(session, nodes[0])
            assert pair.network.stats.callbacks == callbacks


class TestAcrossMethods:
    @pytest.mark.parametrize("method", [FULLY_EAGER, FULLY_LAZY,
                                        PROPOSED])
    def test_every_method_handles_cycles(self, method):
        from repro.bench.harness import make_world

        world = make_world(method)
        for runtime in (world.caller, world.callee):
            register_graph_types(runtime)
        bind_graph_server(world.callee)
        world.caller.import_interface(GRAPH_OPS)
        nodes = build_random_graph(world.caller, 25, seed=6)
        expected = local_reachable_weight(world.caller, nodes[0])
        stub = graph_client(world.caller, "B")
        with world.caller.session() as session:
            assert stub.reachable_weight(session, nodes[0]) == expected
