#!/usr/bin/env python
"""Regenerate the recorded shm-carrier trace fixture.

Runs two bulk smart-RPC sessions over the in-process shm world (three
transport stacks on abstract ``AF_UNIX`` sockets): the ground walks
and dirties a 255-node tree homed at the callee, so every session
ends with a two-phase write-back of many pages.  The trace lands in
``traces/ok/shm_session.trace`` and must pass both rule families.

Run from the repository root::

    PYTHONPATH=src python tests/analysis/fixtures/record_shm_trace.py
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.harness import CALLEE, PROPOSED, make_world
from repro.simnet.tracefmt import save_trace
from repro.workloads.traversal import bind_tree_expose, tree_expose_client
from repro.workloads.trees import TREE_NODE_TYPE_ID, build_complete_tree
from repro.xdr.view import StructView

OK = Path(__file__).resolve().parent / "traces" / "ok"
NODES = 255


def record_sessions():
    """Two bulk sessions, each ending in a write-back of every node."""
    with make_world(PROPOSED, transport="shm", trace=True) as world:
        remote_root = build_complete_tree(world.callee, NODES)
        bind_tree_expose(world.callee, remote_root)
        stub = tree_expose_client(world.caller, CALLEE)
        spec = world.caller.resolver.resolve(TREE_NODE_TYPE_ID)
        for _ in range(2):
            with world.caller.session() as session:
                stack = [stub.tree_root(session)]
                while stack:
                    address = stack.pop()
                    if address == 0:
                        continue
                    view = StructView(
                        world.caller.mem, address, spec, world.caller.arch
                    )
                    value = int.from_bytes(view.get("data"), "big") + 1
                    view.set("data", value.to_bytes(8, "big"))
                    stack.append(view.get("right"))
                    stack.append(view.get("left"))
        return list(world.stats.events)


def main() -> None:
    OK.mkdir(parents=True, exist_ok=True)
    events = record_sessions()
    save_trace(events, OK / "shm_session.trace")
    print(f"recorded {len(events)} events into {OK / 'shm_session.trace'}")


if __name__ == "__main__":
    main()
