"""Property-based end-to-end tests of the smart RPC core.

Each example builds a fresh two-site world, runs a remote traversal or
mutation, and checks the result against a pure-Python reference — the
whole stack (swizzling, faulting, closure transfer, coherency) must be
semantics-preserving for arbitrary parameters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.namesvc.client import TypeResolver
from repro.namesvc.server import TypeNameServer
from repro.simnet.network import Network
from repro.smartrpc.policy import make_policy
from repro.smartrpc.runtime import SmartRpcRuntime
from repro.workloads.linked_list import (
    LIST_OPS,
    bind_list_server,
    build_list,
    list_client,
    read_list,
    register_list_types,
)
from repro.workloads.traversal import (
    bind_tree_server,
    expected_search_checksum,
    tree_client,
)
from repro.workloads.trees import build_complete_tree, register_tree_types
from repro.xdr.arch import SPARC32, X86_64
from repro.xdr.registry import TypeRegistry


def make_pair(closure_size=8192):
    network = Network()
    TypeNameServer(network.add_site("NS"), TypeRegistry())
    runtimes = []
    for site_id, arch in (("A", SPARC32), ("B", X86_64)):
        site = network.add_site(site_id)
        runtime = SmartRpcRuntime(
            network,
            site,
            arch,
            resolver=TypeResolver(site, "NS"),
            policy=make_policy("paper", closure_size=closure_size),
        )
        register_tree_types(runtime)
        register_list_types(runtime)
        runtimes.append(runtime)
    return network, runtimes[0], runtimes[1]


depths = st.integers(min_value=0, max_value=6)
closures = st.sampled_from([0, 64, 256, 8192])


class TestSearchSemantics:
    @settings(max_examples=25, deadline=None)
    @given(depths, st.integers(min_value=0, max_value=127), closures)
    def test_partial_search_equals_reference(self, depth, target,
                                             closure):
        nodes = 2 ** (depth + 1) - 1
        network, a, b = make_pair(closure)
        root = build_complete_tree(a, nodes)
        bind_tree_server(b)
        stub = tree_client(a, "B")
        with a.session() as session:
            checksum = stub.search(session, root, target)
        assert checksum == expected_search_checksum(
            min(target, nodes), nodes
        )


class TestMutationSemantics:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=-(2**20), max_value=2**20),
            min_size=1,
            max_size=25,
        ),
        st.integers(min_value=-8, max_value=8),
    )
    def test_scale_matches_reference(self, values, factor):
        network, a, b = make_pair()
        bind_list_server(b)
        a.import_interface(LIST_OPS)
        head = build_list(a, values)
        stub = list_client(a, "B")
        with a.session() as session:
            stub.scale(session, head, factor)
        assert read_list(a, head) == [v * factor for v in values]

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=-100, max_value=100),
            min_size=1,
            max_size=20,
        )
    )
    def test_drop_negatives_matches_reference(self, values):
        network, a, b = make_pair()
        bind_list_server(b)
        a.import_interface(LIST_OPS)
        head = build_list(a, values)
        stub = list_client(a, "B")
        with a.session() as session:
            new_head = stub.drop_negatives(session, head)
        assert read_list(a, new_head) == [v for v in values if v >= 0]

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=-100, max_value=100),
            min_size=1,
            max_size=10,
        ),
        st.integers(min_value=0, max_value=12),
    )
    def test_append_range_matches_reference(self, values, count):
        network, a, b = make_pair()
        bind_list_server(b)
        a.import_interface(LIST_OPS)
        head = build_list(a, values)
        stub = list_client(a, "B")
        with a.session() as session:
            stub.append_range(session, head, 1000, count)
        assert read_list(a, head) == values + list(
            range(1000, 1000 + count)
        )
