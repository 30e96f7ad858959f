"""Delta shipping is observationally the full modified data set.

Three simnet spaces run a generated session: the ground A and B call
each other (nested calls and callbacks, drawn as the session runs) and
both call C, which homes the session's cells.  Every write goes
through a remote pointer to one of C's cells, so modified data is
relayed through whichever spaces the thread of control passes on its
way to C — including A writing a cell and then calling B, which calls
C.  A dict oracle holds each cell's current value: every read, at any
space, must see it, C's originals must hold it whenever C runs, and
they must hold it after the session ends.

Only C homes written data, and C never calls out.  A home applies a
piggyback to its originals without relaying it further, so a space
that cached a cell before such an apply can go stale once the home
hands activity to it; no version of the protocol covers that case,
and the generator stays clear of it.

Every choice goes through one ``draw(options, label)`` hook, so the
same sessions are sampled by hypothesis (sixty of them, up to five
operations per activation) and enumerated exhaustively by
:func:`sweep`: every session of one cell, nesting at most three deep,
with at most N operations in all (a call counts as one).  N is
``SRPC_SWEEP_OPS``, 5 by default.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpc.interface import InterfaceDef, Param, ProcedureDef
from repro.rpc.stubgen import ClientStub, bind_server
from repro.simnet.network import Network
from repro.workloads.trees import TREE_NODE_TYPE_ID, build_complete_tree
from repro.xdr.types import PointerType, int32, int64
from tests.conftest import SmartPair

CELLS = 4
MAX_DEPTH = 3
MAX_OPS = 5

#: The sweep's bound on operations per session, and how many sessions
#: each bound spans (a check that the enumeration covers its space).
SWEEP_OPS = int(os.environ.get("SRPC_SWEEP_OPS", "5"))
SWEEP_SESSIONS = {1: 5, 2: 26, 3: 152, 4: 974, 5: 6630, 6: 42745}

NODE = PointerType(TREE_NODE_TYPE_ID)
STEPS = InterfaceDef(
    "delivery_steps",
    [
        ProcedureDef("cell", [Param("index", int32)], returns=NODE),
        ProcedureDef(
            "step",
            [Param("depth", int32)]
            + [Param(f"c{k}", NODE) for k in range(CELLS)],
            returns=int64,
        ),
    ],
)

#: Who each space may call: C is a leaf.
CALLEES = {"A": ("B", "C"), "B": ("A", "C"), "C": ()}


class Session:
    """One generated session: the spaces, the oracle, the draws.

    ``draw(options, label)`` makes every choice as the session runs and
    returns one of ``options``: hypothesis's ``data.draw``, a script or
    the sweep.  An activation draws its operations one at a time, the
    first option ending it; ``cells`` bounds which cells are drawn and
    ``ops``, when given, the operations of the whole session.
    """

    def __init__(self, draw, cells=CELLS, ops=None):
        self.draw = draw
        self.drawn_cells = range(cells)
        self.ops_left = ops
        pair = SmartPair(Network())
        self.spaces = {"A": pair.a, "B": pair.b, "C": pair.add_runtime("C")}
        self.cells = [
            build_complete_tree(self.spaces["C"], 1) for _ in range(cells)
        ]
        self.oracle = [0] * cells
        self.writes = 0
        for site, runtime in self.spaces.items():
            bind_server(
                runtime,
                STEPS,
                {
                    "cell": lambda ctx, index: self.cells[index],
                    "step": self._step_at(site),
                },
            )
            if CALLEES[site]:
                runtime.import_interface(STEPS)
        self.spec = self.spaces["A"].resolver.resolve(TREE_NODE_TYPE_ID)

    def _step_at(self, site):
        def step(ctx, depth, *cells):
            self.run(site, ctx, depth, list(cells))
            return 0

        return step

    def run(self, site, session, depth, cells):
        """Draw and run one activation's operations at ``site``."""
        runtime = self.spaces[site]
        if site == "C":
            self.check_originals()
        draw = self.draw
        kinds = ["end", "read"] if site == "C" else ["end", "read", "write"]
        if CALLEES[site] and depth < MAX_DEPTH:
            kinds.append("call")
        for _ in range(MAX_OPS):
            if self.ops_left == 0:
                break
            kind = draw(kinds, f"{site} op")
            if kind == "end":
                break
            if self.ops_left is not None:
                self.ops_left -= 1
            if kind == "call":
                callee = draw(CALLEES[site], "callee")
                ClientStub(runtime, STEPS, callee).step(
                    session, depth + 1, *cells
                )
                continue
            index = draw(self.drawn_cells, "cell")
            view = runtime.struct_view(cells[index], self.spec)
            if kind == "read":
                value = int.from_bytes(view.get("data"), "big")
                assert value == self.oracle[index], (site, index)
            else:
                self.writes += 1
                self.oracle[index] = self.writes
                view.set("data", self.writes.to_bytes(8, "big"))

    def check_originals(self):
        home = self.spaces["C"]
        for index, address in enumerate(self.cells):
            view = home.struct_view(address, self.spec)
            value = int.from_bytes(view.get("data"), "big")
            assert value == self.oracle[index], ("C original", index)

    def play(self):
        ground = self.spaces["A"]
        with ground.session() as session:
            stub = ClientStub(ground, STEPS, "C")
            cells = [stub.cell(session, k) for k in self.drawn_cells]
            # The step passes CELLS pointers; the cells not drawn are NULL.
            cells += [0] * (CELLS - len(cells))
            self.run("A", session, 0, cells)
        self.check_originals()


def sweep(ops, cells=1):
    """Play every session of at most ``ops`` operations on ``cells``
    cells, depth first, and return how many there were.

    Each session's ``draw`` replays a prefix of choice indices and
    takes the first option past it; the next prefix backtracks from the
    last choice that has an option left.  A session that fails raises
    an ``AssertionError`` naming its choices, which replay it as a
    script (``Session(lambda options, label: next(script))``).
    """
    prefix = []
    sessions = 0
    while True:
        trail = []

        def draw(options, label):
            index = prefix[len(trail)] if len(trail) < len(prefix) else 0
            trail.append((index, len(options), options[index]))
            return options[index]

        try:
            Session(draw, cells=cells, ops=ops).play()
        except Exception as exc:
            choices = [choice for _index, _count, choice in trail]
            raise AssertionError(
                f"session {sessions} of the sweep fails "
                f"({type(exc).__name__}: {exc}); its choices: {choices!r}"
            ) from exc
        sessions += 1
        while trail and trail[-1][0] + 1 == trail[-1][1]:
            trail.pop()
        if not trail:
            return sessions
        prefix = [index for index, _count, _choice in trail]
        prefix[-1] += 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_generated_sessions_read_the_current_value(data):
    Session(
        lambda options, label: data.draw(st.sampled_from(options), label)
    ).play()


def test_every_small_session_reads_the_current_value():
    """Every session within the sweep's bounds, not a sample of them."""
    sessions = sweep(SWEEP_OPS)
    assert sessions == SWEEP_SESSIONS.get(SWEEP_OPS, sessions)


def test_a_write_relayed_through_b_reaches_c():
    """A writes cell 0 and calls B, which calls C; C and A read it."""
    script = iter([
        "write", 0, "call", "B",
        "call", "C",
        "read", 0, "end",
        "end",
        "read", 0, "end",
    ])
    Session(lambda options, label: next(script)).play()
