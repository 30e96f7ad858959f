"""Tests for stub generation (runtime proxies and emitted source)."""

import pytest

from repro.rpc.errors import RpcError
from repro.rpc.interface import InterfaceDef, Param, ProcedureDef
from repro.rpc.runtime import RpcRuntime
from repro.rpc.stubgen import ClientStub, bind_server, emit_stub_source
from repro.simnet.network import Network
from repro.xdr.arch import SPARC32
from repro.xdr.types import float64, int32

CALC = InterfaceDef("calc_service", [
    ProcedureDef("add", [Param("x", int32), Param("y", int32)],
                 returns=int32),
    ProcedureDef("neg", [Param("x", float64)], returns=float64),
    ProcedureDef("nothing", [], returns=None),
])


@pytest.fixture
def pair():
    network = Network()
    a = RpcRuntime(network, network.add_site("A"), SPARC32)
    b = RpcRuntime(network, network.add_site("B"), SPARC32)
    bind_server(b, CALC, {
        "add": lambda ctx, x, y: x + y,
        "neg": lambda ctx, x: -x,
        "nothing": lambda ctx: None,
    })
    a.import_interface(CALC)
    return a, b


class TestClientStub:
    def test_methods_exist_per_procedure(self, pair):
        a, b = pair
        stub = ClientStub(a, CALC, "B")
        assert callable(stub.add)
        assert callable(stub.neg)
        assert callable(stub.nothing)

    def test_methods_call_remote(self, pair):
        a, b = pair
        stub = ClientStub(a, CALC, "B")
        with a.session() as session:
            assert stub.add(session, 1, 2) == 3
            assert stub.neg(session, 2.5) == -2.5

    def test_method_docstrings_name_destination(self, pair):
        a, b = pair
        stub = ClientStub(a, CALC, "B")
        assert "calc_service.add" in stub.add.__doc__


class TestBindServer:
    def test_missing_implementation_rejected(self, pair):
        a, b = pair
        network = Network()
        fresh = RpcRuntime(network, network.add_site("X"), SPARC32)
        with pytest.raises(RpcError) as info:
            bind_server(fresh, CALC, {"add": lambda ctx, x, y: 0})
        assert "neg" in str(info.value)

    def test_extra_implementation_rejected(self, pair):
        a, b = pair
        network = Network()
        fresh = RpcRuntime(network, network.add_site("X"), SPARC32)
        with pytest.raises(RpcError):
            bind_server(fresh, CALC, {
                "add": lambda ctx, x, y: 0,
                "neg": lambda ctx, x: 0,
                "nothing": lambda ctx: None,
                "undeclared": lambda ctx: 1,
            })


class TestEmittedSource:
    def test_emits_compilable_python(self):
        source = emit_stub_source(CALC)
        compile(source, "<gen>", "exec")

    def test_emitted_class_name_camel_cased(self):
        source = emit_stub_source(CALC)
        assert "class CalcServiceClient:" in source

    def test_emitted_stub_round_trips(self, pair):
        a, b = pair
        namespace = {}
        exec(compile(emit_stub_source(CALC), "<gen>", "exec"), namespace)
        stub = namespace["CalcServiceClient"](a, "B")
        with a.session() as session:
            assert stub.add(session, 10, 20) == 30
            assert stub.nothing(session) is None

    def test_emitted_source_marks_generated(self):
        assert "Auto-generated" in emit_stub_source(CALC)

    def test_single_param_call_emits_tuple(self, pair):
        """Regression: one-arg procedures must send a 1-tuple."""
        a, b = pair
        namespace = {}
        exec(compile(emit_stub_source(CALC), "<gen>", "exec"), namespace)
        stub = namespace["CalcServiceClient"](a, "B")
        with a.session() as session:
            assert stub.neg(session, 1.5) == -1.5

