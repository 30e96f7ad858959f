"""Property-based cross-method equivalence on random cyclic graphs.

All three transfer policies (eager deep copy, lazy callbacks, the
proposed method) must compute identical answers on arbitrary graphs —
shared structure and cycles included — because they are *transfer*
policies, not semantics.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import METHODS, make_world
from tests.workloads.graphs import (
    GRAPH_OPS,
    bind_graph_server,
    build_random_graph,
    graph_client,
    local_reachable_weight,
    register_graph_types,
)


def run_method(method, num_nodes, seed):
    world = make_world(method)
    for runtime in (world.caller, world.callee):
        register_graph_types(runtime)
    bind_graph_server(world.callee)
    world.caller.import_interface(GRAPH_OPS)
    nodes = build_random_graph(world.caller, num_nodes, seed=seed)
    expected = local_reachable_weight(world.caller, nodes[0])
    stub = graph_client(world.caller, "B")
    with world.caller.session() as session:
        remote = stub.reachable_weight(session, nodes[0])
    return expected, remote


class TestCrossMethodEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_all_methods_agree_with_local_reference(self, num_nodes,
                                                    seed):
        results = set()
        for method in METHODS:
            expected, remote = run_method(method, num_nodes, seed)
            assert remote == expected
            results.add(remote)
        assert len(results) == 1
