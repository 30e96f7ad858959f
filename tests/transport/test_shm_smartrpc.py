"""Smart RPC sessions over the shm carrier, in-process.

The same suite shape as ``test_tcp_smartrpc.py``: three transport
stacks (name server, caller, callee) while the smart runtime above
them swizzles long pointers, pulls faulted pages, piggybacks modified
data, writes back and invalidates at session end — over abstract
``AF_UNIX`` sockets, with results and counters equal to simnet's.
"""

import itertools

import pytest

import repro.rpc.session as rpc_session

from repro.analysis import trace_rules
from repro.analysis.diagnostics import DiagnosticCollector
from repro.bench.harness import (
    CALLEE,
    PROPOSED,
    SHM,
    SIMNET,
    make_world,
    run_tree_call,
)
from repro.simnet.tracefmt import save_trace
from repro.workloads.traversal import (
    bind_tree_expose,
    expected_search_checksum,
    tree_client,
    tree_expose_client,
)
from repro.workloads.trees import (
    TREE_NODE_TYPE_ID,
    build_complete_tree,
    local_tree_checksum,
)
from repro.xdr.view import StructView

NODES = 63
EXPOSED_NODES = 7
BULK_NODES = 255  # a write-back batch of many pages


def _modify_remote_root(world, session, stub):
    """Fetch the callee-homed root pointer and dirty it on the ground."""
    pointer = stub.tree_root(session)
    spec = world.caller.resolver.resolve(TREE_NODE_TYPE_ID)
    view = StructView(world.caller.mem, pointer, spec, world.caller.arch)
    view.set("data", (555).to_bytes(8, "big"))


def _modify_whole_remote_tree(world, session, stub, delta=1000):
    """Walk the exposed tree on the ground, adding ``delta`` per node."""
    spec = world.caller.resolver.resolve(TREE_NODE_TYPE_ID)
    stack = [stub.tree_root(session)]
    touched = 0
    while stack:
        address = stack.pop()
        if address == 0:
            continue
        view = StructView(world.caller.mem, address, spec, world.caller.arch)
        value = int.from_bytes(view.get("data"), "big") + delta
        view.set("data", value.to_bytes(8, "big"))
        touched += 1
        stack.append(view.get("right"))
        stack.append(view.get("left"))
    return touched


@pytest.fixture
def shm_world():
    with make_world(PROPOSED, transport="shm", trace=True) as world:
        yield world


def test_session_results_match_simnet_semantics(shm_world):
    run = run_tree_call(shm_world, NODES, "search", ratio=1.0)
    assert run.result == expected_search_checksum(NODES, NODES)
    assert run.page_faults > 0  # data moved by fault-driven pull


def test_update_session_piggybacks_modifications_over_shm(shm_world):
    root = build_complete_tree(shm_world.caller, NODES)
    stub = tree_client(shm_world.caller, CALLEE)
    with shm_world.caller.session() as session:
        result = stub.search_update(session, root, NODES)
    assert result == expected_search_checksum(NODES, NODES)
    expected = expected_search_checksum(NODES, NODES) + NODES
    assert local_tree_checksum(shm_world.caller, root) == expected
    assert shm_world.stats.invalidations > 0


def test_ground_modification_written_back_over_shm(shm_world):
    remote_root = build_complete_tree(shm_world.callee, EXPOSED_NODES)
    bind_tree_expose(shm_world.callee, remote_root)
    stub = tree_expose_client(shm_world.caller, CALLEE)
    with shm_world.caller.session() as session:
        _modify_remote_root(shm_world, session, stub)
    assert shm_world.stats.write_backs > 0
    with shm_world.caller.session() as session:
        checksum = stub.tree_checksum(session)
    assert checksum == sum(range(EXPOSED_NODES)) + 555


def _bulk_writeback(transport):
    """Dirty every node of a callee-homed tree on the ground, end the
    session, read the tree back: ``(touched, checksum, counters)``."""
    rpc_session._session_numbers = itertools.count(100)  # equal ids
    with make_world(PROPOSED, transport=transport) as world:
        remote_root = build_complete_tree(world.callee, BULK_NODES)
        bind_tree_expose(world.callee, remote_root)
        stub = tree_expose_client(world.caller, CALLEE)
        with world.caller.session() as session:
            touched = _modify_whole_remote_tree(world, session, stub)
        write_backs = world.stats.write_backs
        with world.caller.session() as session:
            checksum = stub.tree_checksum(session)
        counters = (
            write_backs,
            dict(world.stats.messages_by_kind),
            dict(world.stats.bytes_by_kind),
        )
    return touched, checksum, counters


def test_bulk_writeback_matches_simnet():
    """A write-back batch of many pages commits over shm as over
    simnet: every node updated once, and the same write-backs,
    messages and bytes per kind."""
    shm = _bulk_writeback(SHM)
    assert shm[:2] == (BULK_NODES, sum(range(BULK_NODES)) + 1000 * BULK_NODES)
    assert shm[2][0] > 0
    assert shm == _bulk_writeback(SIMNET)


def test_shm_trace_passes_conformance_rules(shm_world, tmp_path):
    root = build_complete_tree(shm_world.caller, NODES)
    remote_root = build_complete_tree(shm_world.callee, EXPOSED_NODES)
    bind_tree_expose(shm_world.callee, remote_root)
    stub = tree_client(shm_world.caller, CALLEE)
    expose = tree_expose_client(shm_world.caller, CALLEE)
    with shm_world.caller.session() as session:
        stub.search_update(session, root, NODES)
        _modify_remote_root(shm_world, session, expose)
    categories = {event.category for event in shm_world.stats.events}
    assert {
        "message",
        "transfer",
        "fault",
        "session-end",
        "write-back",
        "invalidate",
    } <= categories
    trace_path = tmp_path / "shm-session.jsonl"
    save_trace(shm_world.stats, trace_path)
    collector = DiagnosticCollector()
    trace_rules.analyze_trace_file(trace_path, collector)
    assert list(collector) == []
