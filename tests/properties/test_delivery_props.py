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
"""

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

    ``draw(strategy, label)`` makes every choice as the session runs:
    hypothesis's ``data.draw``, or a script.
    """

    def __init__(self, draw):
        self.draw = draw
        pair = SmartPair(Network())
        self.spaces = {"A": pair.a, "B": pair.b, "C": pair.add_runtime("C")}
        self.cells = [
            build_complete_tree(self.spaces["C"], 1) for _ in range(CELLS)
        ]
        self.oracle = [0] * CELLS
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
        for _ in range(draw(st.integers(0, MAX_OPS), f"{site} ops")):
            kinds = ["read"] if site == "C" else ["read", "write"]
            if CALLEES[site] and depth < MAX_DEPTH:
                kinds.append("call")
            kind = draw(st.sampled_from(kinds), f"{site} op")
            if kind == "call":
                callee = draw(st.sampled_from(CALLEES[site]), "callee")
                ClientStub(runtime, STEPS, callee).step(
                    session, depth + 1, *cells
                )
                continue
            index = draw(st.integers(0, CELLS - 1), "cell")
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
            cells = [stub.cell(session, k) for k in range(CELLS)]
            self.run("A", session, 0, cells)
        self.check_originals()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_generated_sessions_read_the_current_value(data):
    Session(lambda strategy, label: data.draw(strategy, label=label)).play()


def test_a_write_relayed_through_b_reaches_c():
    """A writes cell 0 and calls B, which calls C; C and A read it."""
    script = iter([
        3, "write", 0, "call", "B",
        1, "call", "C",
        1, "read", 0,
        "read", 0,
    ])
    Session(lambda strategy, label: next(script)).play()
