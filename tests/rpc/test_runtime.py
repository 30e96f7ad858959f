"""Tests for the conventional RPC runtime."""

import pytest

from repro.rpc.errors import (
    PointerNotSupportedError,
    RpcError,
    RpcRemoteError,
    SessionError,
    UnknownProcedureError,
)
from repro.rpc.interface import InterfaceDef, Param, ProcedureDef
from repro.rpc.runtime import RpcRuntime
from repro.rpc.stubgen import ClientStub, bind_server
from repro.simnet.network import Network
from repro.xdr.arch import SPARC32, X86_64
from repro.xdr.types import PointerType, float64, int32

MATH = InterfaceDef("math", [
    ProcedureDef("add", [Param("x", int32), Param("y", int32)],
                 returns=int32),
    ProcedureDef("halve", [Param("x", float64)], returns=float64),
    ProcedureDef("boom", [], returns=int32),
    ProcedureDef("ping", [], returns=None),
])


@pytest.fixture
def pair():
    network = Network()
    a = RpcRuntime(network, network.add_site("A"), SPARC32)
    b = RpcRuntime(network, network.add_site("B"), X86_64)

    def boom(ctx):
        raise ValueError("intentional failure")

    bind_server(b, MATH, {
        "add": lambda ctx, x, y: x + y,
        "halve": lambda ctx, x: x / 2,
        "boom": boom,
        "ping": lambda ctx: None,
    })
    a.import_interface(MATH)
    return network, a, b


class TestBasicCalls:
    def test_call_returns_result(self, pair):
        network, a, b = pair
        stub = ClientStub(a, MATH, "B")
        with a.session() as session:
            assert stub.add(session, 2, 3) == 5
            assert stub.halve(session, 5.0) == 2.5

    def test_void_call(self, pair):
        network, a, b = pair
        stub = ClientStub(a, MATH, "B")
        with a.session() as session:
            assert stub.ping(session) is None

    def test_call_charges_time_and_messages(self, pair):
        network, a, b = pair
        stub = ClientStub(a, MATH, "B")
        with a.session() as session:
            stub.add(session, 1, 1)
        assert network.stats.total_messages == 2
        assert network.clock.now > 0

    def test_call_by_qualified_name(self, pair):
        network, a, b = pair
        with a.session() as session:
            assert a.call(session, "B", "math.add", (4, 6)) == 10

    def test_unknown_procedure_caller_side(self, pair):
        network, a, b = pair
        with a.session() as session:
            with pytest.raises(UnknownProcedureError):
                a.call(session, "B", "math.mul", (1, 2))


class TestRemoteErrors:
    def test_exception_ships_as_remote_error(self, pair):
        network, a, b = pair
        stub = ClientStub(a, MATH, "B")
        with a.session() as session:
            with pytest.raises(RpcRemoteError) as info:
                stub.boom(session)
        assert info.value.remote_type == "ValueError"
        assert "intentional failure" in info.value.remote_message

    def test_session_usable_after_remote_error(self, pair):
        network, a, b = pair
        stub = ClientStub(a, MATH, "B")
        with a.session() as session:
            with pytest.raises(RpcRemoteError):
                stub.boom(session)
            assert stub.add(session, 1, 2) == 3


class TestSessions:
    def test_call_outside_session_rejected(self, pair):
        network, a, b = pair
        stub = ClientStub(a, MATH, "B")
        session = a.session()
        with session:
            pass
        with pytest.raises(SessionError):
            stub.add(session, 1, 2)

    def test_session_ids_unique(self, pair):
        network, a, b = pair
        first = a.session()
        second = a.session()
        assert first.session_id != second.session_id

    def test_callee_tracks_participants(self, pair):
        network, a, b = pair
        stub = ClientStub(a, MATH, "B")
        with a.session() as session:
            stub.add(session, 1, 2)
            state = b.session_state(session.session_id)
            assert "A" in state.participants

    def test_end_foreign_session_rejected(self, pair):
        network, a, b = pair
        stub = ClientStub(a, MATH, "B")
        with a.session() as session:
            stub.add(session, 1, 2)
            state = b.session_state(session.session_id)
            with pytest.raises(SessionError):
                b.end_session(state)


class TestNestedAndCallback:
    def test_nested_call_through_context(self, pair):
        network, a, b = pair
        relay = InterfaceDef("relay", [
            ProcedureDef("via_b", [Param("x", int32)], returns=int32),
        ])

        def via_b(ctx, x):
            return ctx.call("C", "math.add", (x, 100))

        bind_server(b, relay, {"via_b": via_b})
        c = RpcRuntime(network, network.add_site("C"), SPARC32)
        bind_server(c, MATH, {
            "add": lambda ctx, x, y: x + y,
            "halve": lambda ctx, x: x / 2,
            "boom": lambda ctx: 0,
            "ping": lambda ctx: None,
        })
        stub = ClientStub(a, relay, "B")
        with a.session() as session:
            assert stub.via_b(session, 5) == 105
        assert network.stats.total_messages == 4

    def test_callback_to_caller(self, pair):
        network, a, b = pair
        relay = InterfaceDef("relay", [
            ProcedureDef("bounce", [Param("x", int32)], returns=int32),
        ])
        local = InterfaceDef("local", [
            ProcedureDef("triple", [Param("x", int32)], returns=int32),
        ])

        def bounce(ctx, x):
            return ctx.callback("local.triple", (x,))

        bind_server(b, relay, {"bounce": bounce})
        b.import_interface(local)  # callee-side stub knowledge
        bind_server(a, local, {"triple": lambda ctx, x: x * 3})
        stub = ClientStub(a, relay, "B")
        with a.session() as session:
            assert stub.bounce(session, 7) == 21

    def test_call_depth_tracked(self, pair):
        network, a, b = pair
        probe = InterfaceDef("probe", [
            ProcedureDef("depth", [], returns=int32),
        ])

        def depth(ctx):
            return ctx.state.call_depth

        bind_server(b, probe, {"depth": depth})
        stub = ClientStub(a, probe, "B")
        with a.session() as session:
            assert stub.depth(session) == 1


class TestRegistration:
    def test_duplicate_registration_rejected(self, pair):
        network, a, b = pair
        with pytest.raises(RpcError):
            b.register_procedure(MATH, "add", lambda ctx, x, y: 0)

    def test_unknown_procedure_callee_side(self, pair):
        network, a, b = pair
        ghost = InterfaceDef("ghost", [
            ProcedureDef("gone", [], returns=int32),
        ])
        a.import_interface(ghost)
        with a.session() as session:
            with pytest.raises(RpcRemoteError):
                a.call(session, "B", "ghost.gone", ())

    def test_pointer_argument_refused_by_conventional_rpc(self, pair):
        """The restriction the paper removes (its Section 1)."""
        network, a, b = pair
        trees = InterfaceDef("trees", [
            ProcedureDef("walk", [Param("root", PointerType("node"))],
                         returns=int32),
        ])
        a.import_interface(trees)
        with a.session() as session:
            with pytest.raises(PointerNotSupportedError):
                a.call(session, "B", "trees.walk", (0x1000,))

    def test_typed_heap_malloc(self, pair):
        network, a, b = pair
        a.resolver.register("i", int32)
        address = a.malloc("i")
        assert a.heap.allocation_at(address).type_id == "i"
