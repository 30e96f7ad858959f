"""The four workloads: generated inputs, one operation, its oracle.

Every workload is closed-loop with one client: the single caller
thread issues the next operation only when the previous one has
completed.  Inputs come from the seeded ``rng`` alone, and the
expected result of every operation is computed here from those inputs,
never read back from the program.  README.md says why each one exists
and which layer it stresses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.bench.harness import CALLEE, World
from repro.workloads.linked_list import build_list, list_client
from repro.workloads.traversal import (
    TREE_EXPOSE,
    bind_tree_expose,
    tree_expose_client,
)
from repro.workloads.trees import TREE_NODE_TYPE_ID, build_complete_tree

#: ``wrap(span name, fn)`` — the traced run's hook for code that lives
#: in the benchmark rather than in ``src/``; identity when untraced.
Wrap = Callable[[str, Callable[..., Any]], Callable[..., Any]]


class ListTotal:
    """``list_ops.total`` at callee B over a list homed at caller A."""

    def __init__(
        self, world: World, rng: random.Random, wrap: Wrap, nodes: int
    ) -> None:
        values = [rng.randrange(-(1 << 20), 1 << 20) for _ in range(nodes)]
        self.want = sum(values)
        self.head = build_list(world.caller, values)
        self.stub = list_client(world.caller, CALLEE)

    def op(self, session: Any) -> Tuple[int, int]:
        """One remote walk; ``(result, expected)``."""
        return self.stub.total(session, self.head), self.want


class TreeWriteback:
    """The ground updates half of a tree homed at the callee.

    The ground A fetches the root of B's 2047-node tree, visits 1024
    nodes depth-first through ``StructView`` adding ``delta`` to each
    node's ``data``, then asks B for its checksum (the modified data
    set piggybacks on that call) and ends the session (two-phase
    write-back + invalidate).  The checksum B returns therefore grows
    by exactly ``1024 * delta`` per operation iff every update landed
    exactly once.

    The root always descends left first, so the visited set is the
    root plus its whole left subtree whatever the seed, and the fault,
    message and byte counts repeat exactly; below the root the seed
    picks the child order at every node.
    """

    NODES = 2047
    VISITS = 1024

    def __init__(
        self, world: World, rng: random.Random, wrap: Wrap
    ) -> None:
        root = build_complete_tree(world.callee, self.NODES)
        bind_tree_expose(world.callee, root)
        world.caller.import_interface(TREE_EXPOSE)
        self.stub = tree_expose_client(world.caller, CALLEE)
        self.runtime = world.caller
        self.spec = world.caller.resolver.resolve(TREE_NODE_TYPE_ID)
        self.rng = rng
        # Node i is built holding data == i.
        self.want = sum(range(self.NODES))
        self._update = wrap("workload.body", self._update)

    def op(self, session: Any) -> Tuple[int, int]:
        """One fetch-update-checksum round; ``(result, expected)``."""
        delta = self.rng.randrange(1, 1 << 16)
        flips = self.rng.getrandbits(self.VISITS)
        self.want += self.VISITS * delta
        self._update(self.stub.tree_root(session), delta, flips)
        return self.stub.tree_checksum(session), self.want

    def _update(self, root: int, delta: int, flips: int) -> None:
        struct_view = self.runtime.struct_view
        spec = self.spec
        stack = [root]
        visited = 0
        while stack and visited < self.VISITS:
            address = stack.pop()
            if address == 0:
                continue
            view = struct_view(address, spec)
            data = int.from_bytes(view.get("data"), "big") + delta
            view.set("data", data.to_bytes(8, "big"))
            right, left = view.get_run("right", "left")
            if visited and (flips >> visited) & 1:
                stack.append(left)
                stack.append(right)
            else:
                stack.append(right)
                stack.append(left)
            visited += 1


@dataclass(frozen=True)
class Spec:
    """How the worker runs one workload.

    ``warm`` workloads time single calls inside one long-lived session
    whose first, cold call belongs to set-up; the others time a whole
    cold session per operation.
    """

    policy: str
    transport: str
    warm: bool
    build: Callable[[World, random.Random, Wrap], Any]


_LONG_LIST = partial(ListTotal, nodes=4096)
_SHORT_LIST = partial(ListTotal, nodes=256)

WORKLOADS: Dict[str, Spec] = {
    "list_cold_simnet": Spec("paper", "simnet", False, _LONG_LIST),
    "list_resident_simnet": Spec("paper", "simnet", True, _LONG_LIST),
    "chase_lazy_shm": Spec("lazy", "shm", False, _SHORT_LIST),
    "tree_writeback_tcp": Spec("paper", "tcp", False, TreeWriteback),
}


def counts(stats: Any) -> Dict[str, int]:
    """The exactly-repeating per-operation counters, read after an op."""
    ledger = stats.transfer_ledger
    return {
        "round_trips": stats.callbacks,
        "messages": stats.total_messages,
        "bytes": stats.total_bytes,
        "page_faults": stats.page_faults,
        "write_faults": stats.write_faults,
        "entries": stats.entries_transferred,
        "closure_bytes_shipped": ledger.closure_bytes_shipped,
        "closure_bytes_touched": ledger.closure_bytes_touched,
    }


def op_failed(
    got: int,
    want: int,
    seen: Mapping[str, int],
    reference: Mapping[str, int],
) -> bool:
    """Whether one completed operation counts as failed.

    Wrong value, or traffic that differs from the first timed
    operation's: a retransmission double-counts bytes and is a
    failure, not a slow sample.
    """
    return got != want or any(
        seen[key] != reference[key]
        for key in ("round_trips", "messages", "bytes")
    )
