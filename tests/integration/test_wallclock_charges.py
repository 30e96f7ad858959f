"""A real carrier makes no modelled charge on the fill path.

Under tcp and shm the runtime's clock is a
:class:`~repro.transport.wallclock.WallClock`, whose time passes by
itself, so the runtime decides once that it models no time and
computes no charge.  A wall clock has no ``advance`` or ``bill``, so a
charge that escaped its guard fails the session with an
``AttributeError``: a ``lazy`` and a ``paper`` session over a list and
the tree write-back must complete, with the results, messages and
bytes simnet gives.
"""

import itertools

import pytest

import repro.rpc.session as rpc_session
from repro.bench.harness import CALLEE, SHM, TCP, make_world
from repro.workloads.linked_list import build_list, list_client
from repro.workloads.traversal import (
    TREE_EXPOSE,
    bind_tree_expose,
    tree_expose_client,
)
from repro.workloads.trees import TREE_NODE_TYPE_ID, build_complete_tree

NODES = 64
TREE_NODES = 63
VISITS = 32
DELTA = 5


def _counted(world, run):
    """``(result, messages, bytes)`` of ``run(world)`` from a fresh
    session counter, so the session ids match across carriers."""
    rpc_session._session_numbers = itertools.count(100)
    before = (world.stats.total_messages, world.stats.total_bytes)
    result = run(world)
    return (
        result,
        world.stats.total_messages - before[0],
        world.stats.total_bytes - before[1],
    )


def _list_total(world):
    head = build_list(world.caller, list(range(NODES)))
    stub = list_client(world.caller, CALLEE)
    with world.caller.session() as session:
        return stub.total(session, head)


def _tree_writeback(world):
    """The caller updates part of a callee-homed tree; the checksum
    call carries the modified data home and session end writes back
    the rest."""
    root = build_complete_tree(world.callee, TREE_NODES)
    bind_tree_expose(world.callee, root)
    world.caller.import_interface(TREE_EXPOSE)
    stub = tree_expose_client(world.caller, CALLEE)
    spec = world.caller.resolver.resolve(TREE_NODE_TYPE_ID)
    with world.caller.session() as session:
        stack = [stub.tree_root(session)]
        visited = 0
        while stack and visited < VISITS:
            address = stack.pop()
            if address == 0:
                continue
            view = world.caller.struct_view(address, spec)
            data = int.from_bytes(view.get("data"), "big") + DELTA
            view.set("data", data.to_bytes(8, "big"))
            right, left = view.get_run("right", "left")
            stack.append(right)
            stack.append(left)
            visited += 1
        checksum = stub.tree_checksum(session)
    with world.caller.session() as session:
        return checksum, stub.tree_checksum(session)


@pytest.mark.parametrize("carrier", [TCP, SHM])
@pytest.mark.parametrize(
    "method, run",
    [
        ("lazy", _list_total),
        ("paper", _list_total),
        ("paper", _tree_writeback),
    ],
    ids=["lazy-list", "paper-list", "paper-tree-writeback"],
)
def test_a_real_carrier_charges_no_clock(carrier, method, run):
    with make_world(method) as world:
        assert world.caller.models_time
        want = _counted(world, run)
    with make_world(method, transport=carrier) as world:
        assert not world.caller.models_time
        assert world.caller.mem.clock is None
        got = _counted(world, run)
    assert got == want
    if run is _list_total:
        assert want[0] == sum(range(NODES))
    else:
        checksum, after_end = want[0]
        assert checksum == after_end == (
            sum(range(TREE_NODES)) + VISITS * DELTA
        )
