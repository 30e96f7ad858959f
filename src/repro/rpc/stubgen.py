"""Stub generation.

Two flavours, mirroring what an ``rpcgen``-style tool gives you:

* :class:`ClientStub` — a runtime proxy object whose methods marshal
  and send; built directly from an :class:`~repro.rpc.interface.InterfaceDef`;
* :func:`emit_stub_source` — emits the *source code* of a typed client
  stub class, the way the original stub generator emitted C.  The
  emitted module is plain Python over the public API and is exercised
  by the test suite (``exec`` + round trip).

Server-side binding is :func:`bind_server`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.rpc.errors import RpcError
from repro.rpc.interface import InterfaceDef, ProcedureDef
from repro.rpc.runtime import RpcRuntime


class ClientStub:
    """Caller-side proxy for one interface at one destination site.

    Each interface procedure appears as a method taking the session
    (an ``RpcSession`` or ``CallContext``) followed by the declared
    arguments::

        stub = ClientStub(runtime, interface, dst="B")
        total = stub.search(session, root, 0.4)
    """

    def __init__(
        self,
        runtime: RpcRuntime,
        interface: InterfaceDef,
        dst: str,
    ) -> None:
        self._runtime = runtime
        self._interface = interface
        self._dst = dst
        for procedure in interface.procedures:
            setattr(
                self,
                procedure.name,
                self._make_method(procedure),
            )

    def _make_method(
        self, procedure: ProcedureDef
    ) -> Callable[..., Any]:
        qualified = self._interface.qualified(procedure.name)

        def method(session: Any, *args: Any) -> Any:
            return self._runtime.call(
                session, self._dst, qualified, args, procedure=procedure
            )

        method.__name__ = procedure.name
        method.__doc__ = (
            f"Remote call of {qualified} at site {self._dst!r}."
        )
        return method

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClientStub({self._interface.name} -> {self._dst!r})"
        )


def bind_server(
    runtime: RpcRuntime,
    interface: InterfaceDef,
    implementations: Dict[str, Callable[..., Any]],
) -> None:
    """Register implementations for every procedure of an interface.

    Every declared procedure must be implemented — a partial server
    would fail only at call time, which is the kind of silent drift a
    stub generator exists to prevent.
    """
    declared = {p.name for p in interface.procedures}
    provided = set(implementations)
    missing = declared - provided
    if missing:
        raise RpcError(
            f"server for {interface.name!r} missing procedures "
            f"{sorted(missing)}"
        )
    extra = provided - declared
    if extra:
        raise RpcError(
            f"server for {interface.name!r} implements undeclared "
            f"procedures {sorted(extra)}"
        )
    for name, implementation in implementations.items():
        runtime.register_procedure(interface, name, implementation)


def emit_stub_source(interface: InterfaceDef) -> str:
    """Emit Python source for a typed client stub class.

    The generated class is equivalent to :class:`ClientStub` but with
    explicit, documented methods — what a build step would check in.
    """
    class_name = _camel(interface.name) + "Client"
    lines = [
        f'"""Generated client stub for interface {interface.name!r}.',
        "",
        "Auto-generated by repro.rpc.stubgen; do not edit.",
        '"""',
        "",
        "",
        f"class {class_name}:",
        f'    """Typed caller-side stub for {interface.name!r}."""',
        "",
        "    def __init__(self, runtime, dst):",
        "        self._runtime = runtime",
        "        self._dst = dst",
    ]
    for procedure in interface.procedures:
        params = ", ".join(p.name for p in procedure.params)
        arglist = f", {params}" if params else ""
        signature = f"    def {procedure.name}(self, session{arglist}):"
        qualified = interface.qualified(procedure.name)
        doc = (
            f'        """Call remote procedure {qualified}."""'
        )
        call_args = f"({params},)" if len(procedure.params) == 1 else (
            f"({params})" if params else "()"
        )
        lines += [
            "",
            signature,
            doc,
            "        return self._runtime.call(",
            f"            session, self._dst, {qualified!r}, {call_args}",
            "        )",
        ]
    lines.append("")
    return "\n".join(lines)


def _camel(name: str) -> str:
    return "".join(part.capitalize() for part in name.split("_"))
