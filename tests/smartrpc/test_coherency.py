"""Tests for the coherency protocol: piggybacks, write-back, invalidate."""

from dataclasses import replace

import pytest

from repro.rpc.stubgen import ClientStub, bind_server
from repro.rpc.interface import InterfaceDef, Param, ProcedureDef
from repro.simnet.message import MessageKind
from repro.smartrpc.long_pointer import LongPointer
from repro.smartrpc.policy import make_policy
from repro.workloads.trees import TREE_NODE_TYPE_ID, build_complete_tree
from repro.workloads.traversal import bind_tree_server, tree_client
from repro.xdr.types import PointerType, int32
from tests.conftest import SmartPair


def data_of(runtime, address):
    spec = runtime.resolver.resolve(TREE_NODE_TYPE_ID)
    layout = spec.layout(runtime.arch)
    raw = runtime.space.read_raw(address + layout.offsets["data"], 8)
    return int.from_bytes(raw, "big")


class TestWriteBackToHome:
    def test_callee_updates_reach_home_after_call(self, smart_pair):
        root = build_complete_tree(smart_pair.a, 7)
        bind_tree_server(smart_pair.b)
        stub = tree_client(smart_pair.a, "B")
        with smart_pair.a.session() as session:
            stub.search_update(session, root, 7)
            # Dirty data rode home on the reply piggyback already.
            assert data_of(smart_pair.a, root) == 1
        assert data_of(smart_pair.a, root) == 1

    def test_unvisited_nodes_untouched(self, smart_pair):
        root = build_complete_tree(smart_pair.a, 7)
        bind_tree_server(smart_pair.b)
        stub = tree_client(smart_pair.a, "B")
        with smart_pair.a.session() as session:
            stub.search_update(session, root, 3)  # only 3 nodes
        spec = smart_pair.a.resolver.resolve(TREE_NODE_TYPE_ID)
        layout = spec.layout(smart_pair.a.arch)
        updated = 0
        stack = [root]
        while stack:
            address = stack.pop()
            if address == 0:
                continue
            index_plus = data_of(smart_pair.a, address)
            left = smart_pair.a.codec.read_pointer(
                address + layout.offsets["left"]
            )
            right = smart_pair.a.codec.read_pointer(
                address + layout.offsets["right"]
            )
            stack += [left, right]
            if index_plus > 100:  # impossible original index for 7 nodes
                updated += 1
        assert updated == 0  # originals hold index or index+1 only

    def test_repeated_updates_accumulate(self, smart_pair):
        root = build_complete_tree(smart_pair.a, 3)
        bind_tree_server(smart_pair.b)
        stub = tree_client(smart_pair.a, "B")
        with smart_pair.a.session() as session:
            stub.search_update(session, root, 3)
            stub.search_update(session, root, 3)
        assert data_of(smart_pair.a, root) == 2


class TestDirtyDataTravelsWithActivity:
    def test_third_space_sees_modifications(self, smart_pair):
        """The paper's §3.4 scenario: C must see what B modified."""
        runtime_c = smart_pair.add_runtime("C")
        root = build_complete_tree(smart_pair.a, 3)
        bind_tree_server(runtime_c)

        relay = InterfaceDef("relay", [
            ProcedureDef(
                "modify_then_forward",
                [Param("root", PointerType(TREE_NODE_TYPE_ID))],
                returns=int32,
            ),
        ])

        def modify_then_forward(ctx, root_pointer):
            spec = ctx.runtime.resolver.resolve(TREE_NODE_TYPE_ID)
            view = ctx.struct_view(root_pointer, spec)
            view.set("data", (777).to_bytes(8, "big"))
            # forward to C: the dirty root must ride along
            return ctx.call("C", "tree_ops.search", (root_pointer, 1))

        bind_server(smart_pair.b, relay, {
            "modify_then_forward": modify_then_forward,
        })
        smart_pair.b.import_interface(
            __import__(
                "repro.workloads.traversal", fromlist=["TREE_OPS"]
            ).TREE_OPS
        )
        stub = ClientStub(smart_pair.a, relay, "B")
        with smart_pair.a.session() as session:
            checksum = stub.modify_then_forward(session, root)
        assert checksum == 777  # C read B's value, not A's original

    def test_home_original_updated_when_activity_returns(self, smart_pair):
        root = build_complete_tree(smart_pair.a, 3)
        bind_tree_server(smart_pair.b)
        stub = tree_client(smart_pair.a, "B")
        with smart_pair.a.session() as session:
            stub.search_update(session, root, 1)
            # A is home: its original already reflects the update.
            assert data_of(smart_pair.a, root) == 1


class TestSessionEnd:
    def test_invalidation_reaches_participants(self, smart_pair):
        root = build_complete_tree(smart_pair.a, 7)
        bind_tree_server(smart_pair.b)
        stub = tree_client(smart_pair.a, "B")
        session = smart_pair.a.session()
        with session:
            stub.search(session, root, 7)
            state_b = smart_pair.b.session_state(session.session_id)
            assert len(state_b.cache.table) > 0
        from repro.rpc.errors import SessionError

        with pytest.raises(SessionError):
            smart_pair.b.session_state(session.session_id)

    def test_cache_pages_unmapped_after_session(self, smart_pair):
        root = build_complete_tree(smart_pair.a, 7)
        bind_tree_server(smart_pair.b)
        stub = tree_client(smart_pair.a, "B")
        session = smart_pair.a.session()
        with session:
            stub.search(session, root, 7)
            state_b = smart_pair.b.session_state(session.session_id)
            pages = list(state_b.cache.pages)
        for page in pages:
            assert not smart_pair.b.space.is_mapped(page * 4096)

    def test_sessions_are_independent(self, smart_pair):
        root = build_complete_tree(smart_pair.a, 7)
        bind_tree_server(smart_pair.b)
        stub = tree_client(smart_pair.a, "B")
        with smart_pair.a.session() as first:
            checksum_one = stub.search(first, root, 7)
        with smart_pair.a.session() as second:
            checksum_two = stub.search(second, root, 7)
        assert checksum_one == checksum_two

    def test_second_session_refetches_data(self, smart_pair):
        """Invalidation is real: a new session cannot reuse old cache."""
        root = build_complete_tree(smart_pair.a, 7)
        bind_tree_server(smart_pair.b)
        stub = tree_client(smart_pair.a, "B")
        with smart_pair.a.session() as first:
            stub.search(first, root, 7)
        smart_pair.network.stats.reset()
        with smart_pair.a.session() as second:
            stub.search(second, root, 7)
        assert smart_pair.network.stats.callbacks > 0

    def test_write_back_message_used_when_ground_holds_dirty(
        self, smart_pair
    ):
        """If the GROUND space caches and modifies remote data, session
        end must push it back with a prepare/commit exchange pair."""
        runtime_c = smart_pair.add_runtime("C")
        root = build_complete_tree(runtime_c, 3)

        # Ground A calls C's server? Instead: A (ground) modifies C's
        # data directly by calling a procedure ON ITSELF is impossible;
        # so A calls B, B returns, then A touches nothing. Simpler: A
        # fetches C-homed data via a call to C that returns a pointer,
        # then A dereferences and modifies it locally in-session.
        from repro.rpc.interface import InterfaceDef, ProcedureDef
        from repro.xdr.types import PointerType

        expose = InterfaceDef("expose", [
            ProcedureDef(
                "tree_root", [], returns=PointerType(TREE_NODE_TYPE_ID)
            ),
        ])

        def tree_root(ctx):
            return root

        bind_server(runtime_c, expose, {"tree_root": tree_root})
        stub = ClientStub(smart_pair.a, expose, "C")
        spec = smart_pair.a.resolver.resolve(TREE_NODE_TYPE_ID)
        from repro.simnet.message import MessageKind

        with smart_pair.a.session() as session:
            pointer = stub.tree_root(session)
            from repro.xdr.view import StructView

            view = StructView(
                smart_pair.a.mem, pointer, spec, smart_pair.a.arch
            )
            view.set("data", (555).to_bytes(8, "big"))
        # Session closed: the dirty page was staged and committed at C.
        counts = smart_pair.network.stats.messages_by_kind
        assert counts[MessageKind.WRITEBACK_PREPARE] == 1
        assert counts[MessageKind.WRITEBACK_COMMIT] == 1
        assert data_of(runtime_c, root) == 555


class TestInvalidateTakesTheExchangeCap:
    """Both INVALIDATE multicasts cap each send at ``exchange_timeout``."""

    @pytest.fixture
    def capped(self, network):
        pair = SmartPair(
            network, replace(make_policy("paper"), exchange_timeout=0.5)
        )
        bind_tree_server(pair.b)
        sent = []
        send = pair.a.site.send

        def spy(dst, kind, payload, **kwargs):
            sent.append((kind, kwargs))
            return send(dst, kind, payload, **kwargs)

        pair.a.site.send = spy
        return pair, sent

    @staticmethod
    def _invalidate_caps(sent):
        caps = [k.get("timeout") for kind, k in sent
                if kind is MessageKind.INVALIDATE]
        assert caps, "no INVALIDATE was sent"
        return caps

    def test_normal_end(self, capped):
        pair, sent = capped
        root = build_complete_tree(pair.a, 7)
        with pair.a.session() as session:
            tree_client(pair.a, "B").search(session, root, 7)
        assert self._invalidate_caps(sent) == [0.5]

    def test_abort(self, capped):
        pair, sent = capped
        root = build_complete_tree(pair.a, 7)
        with pair.a.session() as session:
            tree_client(pair.a, "B").search(session, root, 7)
            # B stopped heartbeating: the ground aborts and notifies it.
            reaped = pair.a.reap_orphans({"A": 0.0}, grace=1.0)
            assert reaped == [session.session_id]
        assert pair.network.stats.sessions_aborted == 1
        assert self._invalidate_caps(sent) == [0.5]
