"""The full smart stack over a lossy transport.

Retransmission must never duplicate protocol side effects: a re-sent
MEMORY_BATCH must not allocate twice, a re-sent WRITEBACK_PREPARE or
WRITEBACK_COMMIT must not corrupt, a re-sent call must not re-run the
procedure.  These tests
drive the side-effecting paths end-to-end under seeded loss: each
site, the name server included, loses frames by its own seed.
"""

import pytest

from repro.namesvc.client import TypeResolver
from repro.namesvc.server import TypeNameServer
from repro.simnet.network import Network
from repro.smartrpc.runtime import SmartRpcRuntime
from repro.transport.base import FaultInjector
from repro.workloads.linked_list import (
    LIST_OPS,
    bind_list_server,
    build_list,
    list_client,
    read_list,
    register_list_types,
)
from repro.xdr.arch import SPARC32
from repro.xdr.registry import TypeRegistry


def lossy_pair(loss_rate, seed):
    """NS, caller A and callee B, each losing frames by its own seed.

    B also drops its first reply, so however the seeds fall every
    session re-sends at least one request the callee already ran.
    """
    network = Network()
    sites = [
        network.add_site(
            site_id,
            faults=FaultInjector(
                drop_replies={1} if site_id == "B" else (),
                loss_rate=loss_rate,
                seed=10 * seed + index,
            ),
        )
        for index, site_id in enumerate(("NS", "A", "B"))
    ]
    TypeNameServer(sites[0], TypeRegistry())
    runtimes = []
    for site in sites[1:]:
        runtime = SmartRpcRuntime(
            network, site, SPARC32, resolver=TypeResolver(site, "NS")
        )
        register_list_types(runtime)
        runtimes.append(runtime)
    caller, callee = runtimes
    bind_list_server(callee)
    caller.import_interface(LIST_OPS)
    return network, caller, callee


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 7, 8])
def test_remote_allocation_exactly_once_under_loss(seed):
    """Retransmitted memory batches must not double-allocate."""
    network, caller, callee = lossy_pair(0.2, seed)
    head = build_list(caller, [1])
    client = list_client(caller, "B")
    with caller.session() as session:
        client.append_range(session, head, 100, 5)
    assert read_list(caller, head) == [1, 100, 101, 102, 103, 104]
    # exactly 6 live list allocations in A's heap: no phantom nodes
    live = [
        allocation
        for allocation in caller.heap.live_allocations
        if allocation.type_id == "list_node"
    ]
    assert len(live) == 6
    assert network.retransmissions > 0


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_mutation_and_free_exactly_once_under_loss(seed):
    network, caller, callee = lossy_pair(0.2, seed)
    head = build_list(caller, [5, -1, 6, -2])
    client = list_client(caller, "B")
    with caller.session() as session:
        client.scale(session, head, 3)
        new_head = client.drop_negatives(session, head)
    assert read_list(caller, new_head) == [15, 18]
    live = [
        allocation
        for allocation in caller.heap.live_allocations
        if allocation.type_id == "list_node"
    ]
    assert len(live) == 2  # the two negatives were freed exactly once
    assert network.retransmissions > 0


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_procedure_side_effects_exactly_once_under_loss(seed):
    """A re-sent call must not re-run the remote procedure body."""
    from repro.rpc.interface import InterfaceDef, ProcedureDef
    from repro.rpc.stubgen import ClientStub, bind_server
    from repro.xdr.types import int32

    network, caller, callee = lossy_pair(0.3, seed)
    executions = []
    counter = InterfaceDef("counter", [
        ProcedureDef("tick", [], returns=int32),
    ])

    def tick(ctx):
        executions.append(1)
        return len(executions)

    bind_server(callee, counter, {"tick": tick})
    stub = ClientStub(caller, counter, "B")
    with caller.session() as session:
        results = [stub.tick(session) for _ in range(10)]
    assert results == list(range(1, 11))
    assert len(executions) == 10
    assert network.retransmissions > 0
