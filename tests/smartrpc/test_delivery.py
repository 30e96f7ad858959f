"""Per-peer delivery: each modified datum ships once to each peer.

A space stamps each dirty page with the epoch of its last write fault
and each relayed entry with the epoch it arrived in, and remembers per
peer the epoch of the last activity crossing with it.  A piggyback, and
the session-end write-back to a home, carry only data stamped after
that crossing (DESIGN.md §12).
"""

import pytest

from repro.analysis import sanitizer, trace_rules
from repro.analysis.diagnostics import DiagnosticCollector
from repro.memory.page import Protection
from repro.rpc.errors import RpcRemoteError
from repro.rpc.interface import InterfaceDef, Param, ProcedureDef
from repro.rpc.stubgen import ClientStub, bind_server
from repro.simnet.message import MessageKind
from repro.simnet.network import Network
from repro.simnet.stats import StatsCollector
from repro.workloads.traversal import (
    TREE_EXPOSE,
    bind_tree_expose,
    bind_tree_server,
    tree_client,
    tree_expose_client,
)
from repro.workloads.trees import TREE_NODE_TYPE_ID, build_complete_tree
from repro.xdr.types import PointerType, int64
from tests.conftest import SmartPair

NODE = PointerType(TREE_NODE_TYPE_ID)

PROBE = InterfaceDef(
    "delivery_probe",
    [
        ProcedureDef("bump_root", [], returns=int64),
        ProcedureDef(
            "write_then_fail",
            [Param("node", NODE), Param("value", int64)],
            returns=int64,
        ),
        ProcedureDef("noop", [], returns=int64),
    ],
)


def data_of(runtime, address):
    """A node's ``data`` in the space that homes it (raw plane)."""
    spec = runtime.resolver.resolve(TREE_NODE_TYPE_ID)
    offset = spec.layout(runtime.arch).offsets["data"]
    return int.from_bytes(runtime.space.read_raw(address + offset, 8), "big")


def set_data(runtime, address, value):
    """Write a node's ``data`` through the program plane."""
    spec = runtime.resolver.resolve(TREE_NODE_TYPE_ID)
    runtime.struct_view(address, spec).set("data", value.to_bytes(8, "big"))


def expose_tree_and_probe(runtime, nodes=7):
    """B serves its own tree plus the probe procedures; returns the root."""
    root = build_complete_tree(runtime, nodes)
    bind_tree_expose(runtime, root)

    def bump_root(ctx):
        # The home's own write to its original: it never travels.
        set_data(runtime, root, data_of(runtime, root) + 1)
        return 0

    def write_then_fail(ctx, node, value):
        set_data(ctx.runtime, node, value)
        raise RuntimeError("procedure failed after writing")

    bind_server(
        runtime,
        PROBE,
        {
            "bump_root": bump_root,
            "write_then_fail": write_then_fail,
            "noop": lambda ctx: 0,
        },
    )
    return root


def traced_pair():
    pair = SmartPair(Network(stats=StatsCollector(trace=True)))
    pair.a.import_interface(TREE_EXPOSE)
    pair.a.import_interface(PROBE)
    return pair


def prepares(pair):
    return pair.network.stats.messages_by_kind[MessageKind.WRITEBACK_PREPARE]


def findings(events):
    collector = DiagnosticCollector()
    trace_rules.check_events(events, collector)
    sanitizer.check_events(events, collector)
    return sorted({d.code for d in collector if d.is_error})


class TestDeliveredDataIsNotShippedAgain:
    def test_home_write_after_delivery_survives_session_end(self):
        pair = traced_pair()
        root_b = expose_tree_and_probe(pair.b)
        with pair.a.session() as session:
            root = tree_expose_client(pair.a, "B").tree_root(session)
            set_data(pair.a, root, 100)
            # The call delivers A's 100 to B's original, and B adds 1.
            ClientStub(pair.a, PROBE, "B").bump_root(session)
        # A owes B nothing, so no stale write-back undoes B's write.
        assert data_of(pair.b, root_b) == 101
        assert prepares(pair) == 0
        assert findings(pair.network.stats.events) == []

    def test_write_after_the_last_crossing_is_written_back(self):
        pair = traced_pair()
        root_b = expose_tree_and_probe(pair.b)
        stub = tree_expose_client(pair.a, "B")
        with pair.a.session() as session:
            root = stub.tree_root(session)
            set_data(pair.a, root, 5)
            stub.tree_checksum(session)
            set_data(pair.a, root, 6)
        assert data_of(pair.b, root_b) == 6
        assert prepares(pair) == 1
        events = pair.network.stats.events
        (end,) = [e for e in events if e.category == "session-end"]
        assert end.data["dirty_homes"] == {"B": 1}
        assert findings(events) == []

    def test_one_node_update_costs_what_it_costs_in_a_clean_session(self):
        def later_call_bytes(first):
            pair = SmartPair(Network())
            root = build_complete_tree(pair.a, 255)
            bind_tree_server(pair.b)
            stub = tree_client(pair.a, "B")
            stats = pair.network.stats
            costs = []
            with pair.a.session() as session:
                getattr(stub, first)(session, root, 255)
                for _ in range(3):
                    before = stats.total_bytes
                    stub.search_update(session, root, 1)
                    costs.append(stats.total_bytes - before)
            return costs

        clean = later_call_bytes("search")
        # B dirtied all 255 nodes first; A already holds every one.
        for cost, clean_cost in zip(later_call_bytes("search_update"), clean):
            assert cost <= 2 * clean_cost, (cost, clean_cost)


class TestCrossingsRestamp:
    def test_write_after_a_crossing_faults_again(self):
        pair = traced_pair()
        expose_tree_and_probe(pair.b)
        stub = tree_expose_client(pair.a, "B")
        with pair.a.session() as session:
            root = stub.tree_root(session)
            set_data(pair.a, root, 1)
            state = pair.a.session_state(session.session_id)
            (page,) = state.cache.dirty_pages
            assert pair.a.space.protection_of(page) is Protection.READ_WRITE
            faults = pair.network.stats.write_faults
            stub.tree_checksum(session)
            # The crossing re-protected the page; it stays dirty.
            assert pair.a.space.protection_of(page) is Protection.READ
            assert state.cache.dirty_pages == {page}
            set_data(pair.a, root, 2)
            assert pair.network.stats.write_faults == faults + 1
            assert state.cache.pages[page].stamp == state.epoch

    def test_error_reply_leaves_its_writes_owed(self):
        """An error reply carries no piggyback; the data it did not
        deliver ships on the callee's next reply."""
        pair = traced_pair()
        expose_tree_and_probe(pair.b)
        root = build_complete_tree(pair.a, 7)
        probe = ClientStub(pair.a, PROBE, "B")
        with pair.a.session() as session:
            with pytest.raises(RpcRemoteError):
                probe.write_then_fail(session, root, 7)
            assert data_of(pair.a, root) == 0
            probe.noop(session)
            assert data_of(pair.a, root) == 7
        assert data_of(pair.a, root) == 7
        assert findings(pair.network.stats.events) == []


class TestRulesKnowDeliveredData:
    def test_dropping_a_needed_write_back_is_flagged(self):
        pair = traced_pair()
        expose_tree_and_probe(pair.b)
        stub = tree_expose_client(pair.a, "B")
        with pair.a.session() as session:
            root = stub.tree_root(session)
            set_data(pair.a, root, 5)
            stub.tree_checksum(session)
            set_data(pair.a, root, 6)
        mutant = [
            event
            for event in pair.network.stats.events
            if event.category not in ("write-back", "writeback-phase")
        ]
        assert findings(mutant) == ["SRPC102", "SRPC404"]

    def test_a_delivery_without_its_apply_record_is_flagged(self):
        pair = traced_pair()
        expose_tree_and_probe(pair.b)
        with pair.a.session() as session:
            root = tree_expose_client(pair.a, "B").tree_root(session)
            set_data(pair.a, root, 100)
            ClientStub(pair.a, PROBE, "B").bump_root(session)
        events = pair.network.stats.events
        assert any(e.category == "piggyback-apply" for e in events)
        mutant = [e for e in events if e.category != "piggyback-apply"]
        assert findings(mutant) == ["SRPC404"]
