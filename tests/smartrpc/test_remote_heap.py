"""Tests for extended_malloc / extended_free and operation batching."""

import pytest

from repro.bench.harness import make_world
from repro.rpc.errors import SessionError
from repro.rpc.interface import InterfaceDef, Param, ProcedureDef
from repro.rpc.stubgen import ClientStub, bind_server
from repro.simnet.message import MessageKind
from repro.smartrpc import remote_heap
from repro.smartrpc.errors import SessionAbortedError, SwizzleError
from repro.smartrpc.policy import make_policy
from repro.workloads.linked_list import (
    LIST_NODE_TYPE_ID,
    LIST_OPS,
    bind_list_server,
    build_list,
    list_client,
    read_list,
)
from tests.integration.test_crash_matrix import _gate_events


class _GroundSession:
    """Adapter giving `.state` for direct unit calls."""

    def __init__(self, state):
        self.state = state


@pytest.fixture
def ground(smart_pair):
    state = smart_pair.b.ensure_smart_session("sess", "B")
    return smart_pair, state


class TestExtendedMalloc:
    def test_local_malloc_is_plain_heap(self, ground):
        pair, state = ground
        address = pair.b.extended_malloc(
            _GroundSession(state), "B", LIST_NODE_TYPE_ID
        )
        assert pair.b.heap.allocation_based_at(address) is not None

    def test_remote_malloc_returns_usable_local_pointer(self, ground):
        pair, state = ground
        address = pair.b.extended_malloc(
            _GroundSession(state), "A", LIST_NODE_TYPE_ID
        )
        # Immediately writable (fresh page is read-write + dirty).
        pair.b.mem.store(address, b"\x01\x02")
        entry = state.cache.table.entry_containing(address)
        assert entry is not None and entry.pointer.is_provisional
        assert entry.resident

    def test_flush_assigns_real_home_address(self, ground):
        pair, state = ground
        address = pair.b.extended_malloc(
            _GroundSession(state), "A", LIST_NODE_TYPE_ID
        )
        remote_heap.flush(pair.b, state)
        entry = state.cache.table.entry_containing(address)
        assert not entry.pointer.is_provisional
        home = pair.a.heap
        assert home.allocation_based_at(entry.pointer.address) is not None

    def test_flush_batches_into_one_message(self, ground):
        pair, state = ground
        session = _GroundSession(state)
        for _ in range(10):
            pair.b.extended_malloc(session, "A", LIST_NODE_TYPE_ID)
        before = pair.network.stats.messages_by_kind[
            MessageKind.MEMORY_BATCH
        ]
        remote_heap.flush(pair.b, state)
        after = pair.network.stats.messages_by_kind[
            MessageKind.MEMORY_BATCH
        ]
        assert after == before + 1

    def test_flush_with_nothing_pending_sends_nothing(self, ground):
        pair, state = ground
        before = pair.network.stats.total_messages
        remote_heap.flush(pair.b, state)
        assert pair.network.stats.total_messages == before

    def test_stats_count_remote_mallocs(self, ground):
        pair, state = ground
        pair.b.extended_malloc(_GroundSession(state), "A",
                               LIST_NODE_TYPE_ID)
        assert pair.network.stats.remote_mallocs == 1

    def test_needs_smart_session(self, smart_pair):
        from repro.rpc.session import SessionState

        class Fake:
            state = SessionState("x", "B")

        with pytest.raises(SessionError):
            smart_pair.b.extended_malloc(Fake(), "A", LIST_NODE_TYPE_ID)


class TestExtendedFree:
    def test_free_local_allocation(self, ground):
        pair, state = ground
        session = _GroundSession(state)
        address = pair.b.extended_malloc(session, "B", LIST_NODE_TYPE_ID)
        pair.b.extended_free(session, address)
        assert pair.b.heap.allocation_based_at(address) is None

    def test_free_provisional_cancels_pending_alloc(self, ground):
        pair, state = ground
        session = _GroundSession(state)
        address = pair.b.extended_malloc(session, "A", LIST_NODE_TYPE_ID)
        pair.b.extended_free(session, address)
        assert state.pending_allocs == []
        assert state.pending_frees == []
        before = pair.network.stats.total_messages
        remote_heap.flush(pair.b, state)
        assert pair.network.stats.total_messages == before

    def test_free_remote_data_releases_original(self, ground):
        pair, state = ground
        session = _GroundSession(state)
        address = pair.b.extended_malloc(session, "A", LIST_NODE_TYPE_ID)
        remote_heap.flush(pair.b, state)
        entry = state.cache.table.entry_containing(address)
        home_address = entry.pointer.address
        pair.b.extended_free(session, address)
        remote_heap.flush(pair.b, state)
        assert pair.a.heap.allocation_based_at(home_address) is None

    def test_free_wild_pointer_rejected(self, ground):
        pair, state = ground
        with pytest.raises(SwizzleError):
            pair.b.extended_free(_GroundSession(state), 0xDDDD0000)

    def test_free_interior_pointer_rejected(self, ground):
        pair, state = ground
        session = _GroundSession(state)
        address = pair.b.extended_malloc(session, "A", LIST_NODE_TYPE_ID)
        with pytest.raises(SwizzleError):
            pair.b.extended_free(session, address + 2)


class TestEndToEndListExtension:
    def test_append_range_survives_session(self, smart_pair):
        bind_list_server(smart_pair.b)
        smart_pair.a.import_interface(LIST_OPS)
        head = build_list(smart_pair.a, [1, 2])
        client = list_client(smart_pair.a, "B")
        with smart_pair.a.session() as session:
            client.append_range(session, head, 50, 4)
        assert read_list(smart_pair.a, head) == [1, 2, 50, 51, 52, 53]

    def test_drop_negatives_frees_home_memory(self, smart_pair):
        bind_list_server(smart_pair.b)
        smart_pair.a.import_interface(LIST_OPS)
        head = build_list(smart_pair.a, [-1, 5, -2, 7])
        live_before = smart_pair.a.heap.live_bytes
        client = list_client(smart_pair.a, "B")
        with smart_pair.a.session() as session:
            new_head = client.drop_negatives(session, head)
        assert read_list(smart_pair.a, new_head) == [5, 7]
        assert smart_pair.a.heap.live_bytes < live_before

    def test_immediate_mode_sends_per_operation(self, network):
        from tests.conftest import SmartPair

        pair = SmartPair(
            network, make_policy("paper", batch_memory_ops=False)
        )
        bind_list_server(pair.b)
        pair.a.import_interface(LIST_OPS)
        head = build_list(pair.a, [1])
        client = list_client(pair.a, "B")
        with pair.a.session() as session:
            client.append_range(session, head, 10, 5)
        batches = network.stats.messages_by_kind[MessageKind.MEMORY_BATCH]
        assert batches >= 5  # one per allocation, none coalesced


class TestDeadHome:
    @pytest.mark.parametrize("flush_at", ["flush_memory_batch", "end"])
    def test_dead_home_aborts_the_session(self, flush_at):
        """A memory batch to a crashed home aborts like any exchange.

        Whether the batch flushes explicitly or at session end, the
        ground gets a typed abort naming the home, keeps no session,
        cache page or table row, and the trace passes both gates.
        """
        world = make_world("paper", trace=True)
        ground = world.caller
        with pytest.raises(SessionAbortedError) as aborted:
            with ground.session() as session:
                state = session.state
                ground.extended_malloc(session, "B", LIST_NODE_TYPE_ID)
                world.network.crash("B")
                if flush_at == "flush_memory_batch":
                    ground.flush_memory_batch(state)
        assert aborted.value.reason == "peer-unreachable:B"
        assert ground._sessions == {}
        assert state.cache.footprint() == (0, 0)
        assert world.stats.sessions_aborted == 1
        _gate_events(world.stats.events)
