"""The full generated-stub pipeline against every workload interface."""

import pytest

from repro.rpc.stubgen import emit_stub_source
from repro.workloads.hashtable import HASH_OPS
from repro.workloads.linked_list import LIST_OPS
from repro.workloads.traversal import TREE_OPS
from tests.workloads.graphs import GRAPH_OPS

INTERFACES = [TREE_OPS, HASH_OPS, LIST_OPS, GRAPH_OPS]


@pytest.mark.parametrize(
    "interface", INTERFACES, ids=[i.name for i in INTERFACES]
)
def test_every_workload_interface_emits_compilable_stubs(interface):
    source = emit_stub_source(interface)
    namespace = {}
    exec(compile(source, f"<{interface.name}>", "exec"), namespace)
    class_name = [
        name for name in namespace if name.endswith("Client")
    ]
    assert len(class_name) == 1


@pytest.mark.parametrize(
    "interface", INTERFACES, ids=[i.name for i in INTERFACES]
)
def test_signatures_qualified_consistently(interface):
    for procedure in interface.procedures:
        qualified = interface.qualified(procedure.name)
        assert qualified.startswith(interface.name + ".")


def test_generated_tree_stub_serves_real_calls(smart_pair):
    from repro.workloads.traversal import bind_tree_server
    from repro.workloads.trees import build_complete_tree

    bind_tree_server(smart_pair.b)
    smart_pair.a.import_interface(TREE_OPS)
    namespace = {}
    exec(compile(emit_stub_source(TREE_OPS), "<gen>", "exec"), namespace)
    stub = namespace["TreeOpsClient"](smart_pair.a, "B")
    root = build_complete_tree(smart_pair.a, 15)
    with smart_pair.a.session() as session:
        assert stub.search(session, root, 15) == sum(range(15))
        assert stub.search_repeat(session, root, 15, 2) == (
            2 * (sum(range(15)) )
        )
