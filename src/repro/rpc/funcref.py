"""Remote function references (the paper's §6 missing feature).

The paper: "the method does not support a remote pointer to a
function.  ...  Ohori and Kato recently developed a systematic stub
generation method that provides for the programmers the illusion that
any polymorphic higher-order functions can be passed among
heterogeneous address spaces.  Fortunately, their method and the
method proposed in this paper do not conflict."

This module supplies that composition.  A function is not data in a
heap — it cannot be cached or faulted in — so a *function reference*
is a call-level value: ``(address space id, qualified procedure name)``
plus the statically known signature.  Passing one is passing the
capability to call it; invoking one issues an RPC to its home space
(a callback when the home is the caller), inside the same session, so
any pointer arguments the function takes still enjoy the smart-RPC
treatment.

Usage::

    MAPPER = ProcedureDef("double", [Param("x", int32)], returns=int32)

    iface = InterfaceDef("apply", [
        ProcedureDef("map_list", [
            Param("head", PointerType("cell")),
            Param("f", FuncRefType(MAPPER)),
        ], returns=int32),
    ])

    # caller side
    stub.map_list(session, head, caller.func_ref("local_funcs", "double"))

    # callee side
    def map_list(ctx, head, f):
        ...
        view.set("value", invoke(ctx, f, (view.get("value"),)))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.rpc.errors import MarshalError
from repro.rpc.interface import ProcedureDef
from repro.xdr.arch import Architecture
from repro.xdr.errors import XdrError
from repro.xdr.stream import XdrDecoder, XdrEncoder
from repro.xdr.types import TypeSpec


@dataclass(frozen=True)
class FuncRef:
    """A reference to a procedure living in some address space.

    The signature rides along after unmarshalling so the holder can
    invoke it without having imported the interface it came from.
    """

    space_id: str
    qualified: str
    signature: Optional[ProcedureDef] = field(
        default=None, compare=False, hash=False
    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FuncRef({self.space_id}:{self.qualified})"


class FuncRefType(TypeSpec):
    """The parameter/result type of a function reference.

    Function references are call-level values, not heap data: they
    have no memory layout, cannot appear inside structs, and are never
    cached — which is exactly why the paper's data-caching method and
    the higher-order method compose without conflict.
    """

    def __init__(self, signature: ProcedureDef) -> None:
        self.signature = signature

    def sizeof(self, arch: Architecture) -> int:
        raise XdrError(
            "function references are call-level values and have no "
            "memory layout"
        )

    def alignment(self, arch: Architecture) -> int:
        raise XdrError(
            "function references are call-level values and have no "
            "memory layout"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FuncRefType)
            and self.signature.name == other.signature.name
        )

    def __hash__(self) -> int:
        return hash(("funcref", self.signature.name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FuncRefType({self.signature.name})"


def pack_func_ref(
    encoder: XdrEncoder, spec: FuncRefType, value: Any
) -> None:
    """Marshal one function reference."""
    if not isinstance(value, FuncRef):
        raise MarshalError(
            f"function-reference parameter given {value!r}"
        )
    encoder.pack_string(value.space_id)
    encoder.pack_string(value.qualified)


def unpack_func_ref(decoder: XdrDecoder, spec: FuncRefType) -> FuncRef:
    """Unmarshal one function reference, attaching its signature."""
    space_id = decoder.unpack_string()
    qualified = decoder.unpack_string()
    return FuncRef(space_id, qualified, signature=spec.signature)


def invoke(session: Any, ref: FuncRef, args: Sequence[Any]) -> Any:
    """Call a function reference within ``session``.

    ``session`` is anything exposing ``.state`` and a ``runtime`` (a
    :class:`~repro.rpc.runtime.CallContext`) — invoking from a
    procedure body is the common case; invoking a reference to one of
    the *local* runtime's procedures short-circuits into a direct call
    only at the network layer (it is still a message to self-site?
    no — the runtime's own site is the destination, so the simulated
    network is not involved when home == self).
    """
    runtime = session.runtime
    signature = ref.signature
    if signature is None:
        signature = runtime.procedure_def(ref.qualified)
    if ref.space_id == runtime.site_id:
        # The function lives here: an ordinary local call through the
        # registered implementation, no network.
        procedure, implementation = runtime._lookup(ref.qualified)
        return implementation(session, *args)
    return runtime.call(
        session, ref.space_id, ref.qualified, args, procedure=signature
    )
