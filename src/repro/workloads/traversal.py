"""Remote tree procedures: the bodies the evaluation measures.

All three procedures run identically on the proposed method and on
both baselines — they see only ordinary pointers through
:class:`~repro.xdr.view.StructView`, which is the paper's transparency
claim made executable.

* ``search`` — depth-first visit until a target number of nodes has
  been visited (Figs. 4/5: target = ratio x total nodes);
* ``search_update`` — the same visit, updating each visited node's
  data (Fig. 7);
* ``path_search`` — repeated seeded root-to-leaf descents (Fig. 6:
  upper-level nodes are reused across searches, which is the caching
  effect the experiment repeats searches to expose).
"""

from __future__ import annotations

import random
from typing import Dict

from repro.rpc.interface import InterfaceDef, Param, ProcedureDef
from repro.rpc.runtime import CallContext, RpcRuntime
from repro.rpc.stubgen import ClientStub, bind_server
from repro.workloads.trees import TREE_NODE_TYPE_ID, local_tree_checksum
from repro.xdr.types import PointerType, int32, int64

TREE_OPS = InterfaceDef(
    "tree_ops",
    [
        ProcedureDef(
            "search",
            [
                Param("root", PointerType(TREE_NODE_TYPE_ID)),
                Param("target_nodes", int32),
            ],
            returns=int64,
        ),
        ProcedureDef(
            "search_update",
            [
                Param("root", PointerType(TREE_NODE_TYPE_ID)),
                Param("target_nodes", int32),
            ],
            returns=int64,
        ),
        ProcedureDef(
            "search_repeat",
            [
                Param("root", PointerType(TREE_NODE_TYPE_ID)),
                Param("target_nodes", int32),
                Param("repeats", int32),
            ],
            returns=int64,
        ),
        ProcedureDef(
            "path_search",
            [
                Param("root", PointerType(TREE_NODE_TYPE_ID)),
                Param("repeats", int32),
                Param("seed", int32),
            ],
            returns=int64,
        ),
    ],
)
"""The tree-search interface used by every tree experiment."""


def _visit(
    ctx: CallContext, root: int, target_nodes: int, update: bool
) -> int:
    """Depth-first visit of up to ``target_nodes`` nodes; checksum back."""
    spec = ctx.runtime.resolver.resolve(TREE_NODE_TYPE_ID)
    visited = 0
    checksum = 0
    stack = [root]
    while stack and visited < target_nodes:
        address = stack.pop()
        if address == 0:
            continue
        view = ctx.struct_view(address, spec)
        data = view.get("data")
        checksum += int.from_bytes(data, "big")
        if update:
            value = int.from_bytes(data, "big") + 1
            view.set("data", value.to_bytes(8, "big"))
        visited += 1
        if ctx.runtime.models_time:
            ctx.runtime.clock.advance(ctx.runtime.cost_model.visit_compute)
        # Visit left before right: push right first.  Both child
        # pointers come back in one bulk access run — the page is
        # already resident after the ``data`` read above, so the run
        # never moves a fault, only the per-field checks.
        right, left = view.get_run("right", "left")
        stack.append(right)
        stack.append(left)
    return checksum


def search(ctx: CallContext, root: int, target_nodes: int) -> int:
    """Visit-only depth-first search (Figs. 4 and 5)."""
    return _visit(ctx, root, target_nodes, update=False)


def search_update(ctx: CallContext, root: int, target_nodes: int) -> int:
    """Depth-first search that updates every visited node (Fig. 7)."""
    return _visit(ctx, root, target_nodes, update=True)


def search_repeat(
    ctx: CallContext, root: int, target_nodes: int, repeats: int
) -> int:
    """The Figure 6 subject: the depth-first search repeated.

    "The nodes of the tree were remotely visited from the root to the
    leaves for 10 times.  The reason for repeating searches is to
    increase the effect of caching; nodes in the upper level will be
    reused in the subsequent searches."  The first pass pays all the
    transfers; later passes run at local-access speed.
    """
    checksum = 0
    for _ in range(repeats):
        checksum += _visit(ctx, root, target_nodes, update=False)
    return checksum


def path_search(ctx: CallContext, root: int, repeats: int, seed: int) -> int:
    """``repeats`` seeded random root-to-leaf descents (Fig. 6)."""
    spec = ctx.runtime.resolver.resolve(TREE_NODE_TYPE_ID)
    rng = random.Random(seed)
    checksum = 0
    for _ in range(repeats):
        address = root
        while address != 0:
            view = ctx.struct_view(address, spec)
            checksum += int.from_bytes(view.get("data"), "big")
            if ctx.runtime.models_time:
                ctx.runtime.clock.advance(ctx.runtime.cost_model.visit_compute)
            left, right = view.get_run("left", "right")
            address = left if rng.random() < 0.5 else right
    return checksum


def bind_tree_server(runtime: RpcRuntime) -> None:
    """Register the tree procedures on a callee runtime."""
    bind_server(
        runtime,
        TREE_OPS,
        {
            "search": search,
            "search_update": search_update,
            "search_repeat": search_repeat,
            "path_search": path_search,
        },
    )


def tree_client(runtime: RpcRuntime, dst: str) -> ClientStub:
    """A caller-side stub for the tree procedures."""
    return ClientStub(runtime, TREE_OPS, dst)


TREE_EXPOSE = InterfaceDef(
    "tree_expose",
    [
        ProcedureDef(
            "tree_root", [], returns=PointerType(TREE_NODE_TYPE_ID)
        ),
        ProcedureDef("tree_checksum", [], returns=int64),
    ],
)
"""A server exposing a tree *it* homes, by returning its root pointer.

This inverts the usual experiment (caller-homed data walked by the
callee): here the caller receives a remote pointer into the callee's
space and may dereference — and modify — the callee's data directly.
A modifying caller exercises the session-end write-back
(``WRITEBACK_PREPARE`` / ``WRITEBACK_COMMIT``), since at close time
the ground holds dirty data whose home is the callee.
``tree_checksum`` reads the tree in its home space, so a later call
observes whether written-back updates really landed (and landed once).
"""


def bind_tree_expose(runtime: RpcRuntime, root: int) -> None:
    """Serve ``TREE_EXPOSE`` for the tree rooted at ``root``."""

    def tree_root(ctx: CallContext) -> int:
        return root

    def tree_checksum(ctx: CallContext) -> int:
        return local_tree_checksum(runtime, root)

    bind_server(
        runtime,
        TREE_EXPOSE,
        {"tree_root": tree_root, "tree_checksum": tree_checksum},
    )


def tree_expose_client(runtime: RpcRuntime, dst: str) -> ClientStub:
    """A caller-side stub for the exposed-tree procedures."""
    return ClientStub(runtime, TREE_EXPOSE, dst)


def expected_search_checksum(target_nodes: int, total_nodes: int) -> int:
    """Checksum ``search`` returns on a heap-ordered complete tree.

    The depth-first left-first visit of a heap-ordered tree enumerates
    node indices in DFS order; this recomputes the same sum without a
    tree, for test assertions.
    """
    checksum = 0
    visited = 0
    stack = [0]
    while stack and visited < target_nodes:
        index = stack.pop()
        if index >= total_nodes:
            continue
        checksum += index
        visited += 1
        stack.append(2 * index + 2)
        stack.append(2 * index + 1)
    return checksum


def visit_counts(target_ratio: float, total_nodes: int) -> Dict[str, int]:
    """Translate an access ratio into a node budget (bench helper)."""
    target = int(round(target_ratio * total_nodes))
    return {"target_nodes": max(0, min(total_nodes, target))}
