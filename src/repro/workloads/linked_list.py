"""Linked lists: mutation and remote memory management workloads.

Beyond reads, the evaluation's machinery must handle writes (coherency)
and allocation (``extended_malloc`` batching).  These procedures build,
sum, extend and destroy singly linked lists across address spaces.
"""

from __future__ import annotations

from typing import List

from repro.rpc.interface import InterfaceDef, Param, ProcedureDef
from repro.rpc.runtime import CallContext, RpcRuntime
from repro.rpc.stubgen import ClientStub, bind_server
from repro.smartrpc.runtime import SmartRpcRuntime
from repro.xdr.types import Field, PointerType, StructType, int32, int64

LIST_NODE_TYPE_ID = "list_node"


def list_node_spec() -> StructType:
    """One list cell: a next pointer and a 32-bit value."""
    return StructType(
        LIST_NODE_TYPE_ID,
        [
            Field("next", PointerType(LIST_NODE_TYPE_ID)),
            Field("value", int32),
        ],
    )


def register_list_types(runtime: RpcRuntime) -> None:
    """Register the list node type with a runtime's resolver."""
    runtime.resolver.register(LIST_NODE_TYPE_ID, list_node_spec())


def build_list(runtime: RpcRuntime, values: List[int]) -> int:
    """Build a list holding ``values`` in heap order; return the head."""
    spec = runtime.resolver.resolve(LIST_NODE_TYPE_ID)
    layout = spec.layout(runtime.arch)
    head = 0
    for value in reversed(values):
        node = runtime.heap.malloc(
            spec.sizeof(runtime.arch), LIST_NODE_TYPE_ID
        )
        runtime.codec.write_pointer(node + layout.offsets["next"], head)
        runtime.space.write_raw(
            node + layout.offsets["value"],
            value.to_bytes(4, runtime.arch.byteorder, signed=True),
        )
        head = node
    return head


def read_list(runtime: RpcRuntime, head: int) -> List[int]:
    """Raw-plane readback of a local list (test/verification helper)."""
    spec = runtime.resolver.resolve(LIST_NODE_TYPE_ID)
    layout = spec.layout(runtime.arch)
    values = []
    address = head
    while address != 0:
        raw = runtime.space.read_raw(address + layout.offsets["value"], 4)
        values.append(
            int.from_bytes(raw, runtime.arch.byteorder, signed=True)
        )
        address = runtime.codec.read_pointer(
            address + layout.offsets["next"]
        )
    return values


LIST_OPS = InterfaceDef(
    "list_ops",
    [
        ProcedureDef(
            "total",
            [Param("head", PointerType(LIST_NODE_TYPE_ID))],
            returns=int64,
        ),
        ProcedureDef(
            "scale",
            [
                Param("head", PointerType(LIST_NODE_TYPE_ID)),
                Param("factor", int32),
            ],
            returns=int32,
        ),
        ProcedureDef(
            "append_range",
            [
                Param("head", PointerType(LIST_NODE_TYPE_ID)),
                Param("start", int32),
                Param("count", int32),
            ],
            returns=int32,
        ),
        ProcedureDef(
            "drop_negatives",
            [Param("head", PointerType(LIST_NODE_TYPE_ID))],
            returns=PointerType(LIST_NODE_TYPE_ID),
        ),
    ],
)
"""Remote list-manipulation interface."""


def total(ctx: CallContext, head: int) -> int:
    """Sum every value in the list.

    The hot loop reads both members of every node through one bulk
    access run per node: one protection check per node instead of one
    per field, with identical modelled charges.  The run plan is
    compiled once before the loop, so each node costs a single
    ``load`` plus one precompiled unpack — no per-node view
    construction.
    """
    from repro.xdr.view import compile_run_plan

    spec = ctx.runtime.resolver.resolve(LIST_NODE_TYPE_ID)
    plan = compile_run_plan(spec, ctx.runtime.arch, ("value", "next"))
    load = ctx.mem.load
    start, span, accesses, unpack = (
        plan.start, plan.span, plan.accesses, plan.unpack,
    )
    result = 0
    address = head
    while address != 0:
        value, address = unpack(load(address + start, span, accesses))
        result += value
    return result


def scale(ctx: CallContext, head: int, factor: int) -> int:
    """Multiply every value in place; returns the node count.

    Stays on per-field access: the read-modify-write per node puts a
    write fault between the first read and the next-pointer read, so
    coalescing the reads into one run would move the fault relative to
    the access charges and change the simulated timeline.
    """
    spec = ctx.runtime.resolver.resolve(LIST_NODE_TYPE_ID)
    count = 0
    address = head
    while address != 0:
        view = ctx.struct_view(address, spec)
        view.set("value", view.get("value") * factor)
        count += 1
        address = view.get("next")
    return count


def append_range(ctx: CallContext, head: int, start: int, count: int) -> int:
    """Append ``count`` fresh nodes, allocated in the *caller's* space.

    Exercises ``extended_malloc``: the callee allocates remote memory
    in the list's home space so the appended nodes survive the session.
    """
    runtime = ctx.runtime
    if not isinstance(runtime, SmartRpcRuntime):
        raise TypeError("append_range needs a smart-RPC runtime")
    spec = runtime.resolver.resolve(LIST_NODE_TYPE_ID)
    view = ctx.struct_view(head, spec)
    while view.get("next") != 0:
        next_address = view.get("next")
        assert isinstance(next_address, int)
        view = ctx.struct_view(next_address, spec)
    home = ctx.caller_site
    for index in range(count):
        node = runtime.extended_malloc(ctx, home, LIST_NODE_TYPE_ID)
        fresh = ctx.struct_view(node, spec)
        fresh.set("next", 0)
        fresh.set("value", start + index)
        view.set("next", node)
        view = fresh
    return count


def drop_negatives(ctx: CallContext, head: int) -> int:
    """Unlink and free every node with a negative value; new head back.

    Exercises ``extended_free`` on remote data and returning a pointer
    from a remote procedure.
    """
    runtime = ctx.runtime
    if not isinstance(runtime, SmartRpcRuntime):
        raise TypeError("drop_negatives needs a smart-RPC runtime")
    spec = runtime.resolver.resolve(LIST_NODE_TYPE_ID)
    while head != 0:
        view = ctx.struct_view(head, spec)
        if view.get("value") >= 0:
            break
        successor = view.get("next")
        assert isinstance(successor, int)
        runtime.extended_free(ctx, head)
        head = successor
    if head == 0:
        return 0
    previous = ctx.struct_view(head, spec)
    address = previous.get("next")
    while address != 0:
        assert isinstance(address, int)
        view = ctx.struct_view(address, spec)
        successor = view.get("next")
        assert isinstance(successor, int)
        if view.get("value") < 0:
            previous.set("next", successor)
            runtime.extended_free(ctx, address)
        else:
            previous = view
        address = successor
    return head


def bind_list_server(runtime: RpcRuntime) -> None:
    """Register the list procedures on a callee runtime."""
    bind_server(
        runtime,
        LIST_OPS,
        {
            "total": total,
            "scale": scale,
            "append_range": append_range,
            "drop_negatives": drop_negatives,
        },
    )


def list_client(runtime: RpcRuntime, dst: str) -> ClientStub:
    """A caller-side stub for the list procedures."""
    return ClientStub(runtime, LIST_OPS, dst)
