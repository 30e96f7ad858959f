"""Stateful property tests: random RPC histories preserve semantics.

Two hypothesis state machines drive simulated deployments through
random interleavings:

* :class:`ListRpcMachine` — remote list operations against a plain
  Python model: after every step the remote state must agree with the
  model and every session must satisfy the runtime's invariants.
* :class:`OrphanReaperMachine` — sessions, peer crashes, aborts and
  reaper sweeps in arbitrary orders: however the interleaving goes, a
  torn-down session must leave *nothing* behind — no protected cache
  pages, no allocation-table entries — and a reaper sweep must clear
  every session that lost a participant.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.namesvc.client import TypeResolver
from repro.namesvc.server import TypeNameServer
from repro.simnet.network import Network
from repro.smartrpc.errors import SessionAbortedError
from repro.smartrpc.policy import make_policy
from repro.smartrpc.runtime import SmartRpcRuntime
from repro.smartrpc.validate import session_diagnostics
from repro.workloads.linked_list import (
    LIST_OPS,
    bind_list_server,
    build_list,
    list_client,
    read_list,
    register_list_types,
)
from repro.workloads.traversal import (
    TREE_EXPOSE,
    TREE_OPS,
    bind_tree_expose,
    tree_expose_client,
)
from repro.workloads.trees import (
    TREE_NODE_TYPE_ID,
    build_complete_tree,
    register_tree_types,
)
from repro.xdr.arch import SPARC32, X86_64
from repro.xdr.registry import TypeRegistry
from repro.xdr.view import StructView

VALUES = st.lists(
    st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=8
)


class ListRpcMachine(RuleBasedStateMachine):
    """Random remote list manipulation against a Python model."""

    @initialize()
    def setup(self):
        self.network = Network()
        TypeNameServer(self.network.add_site("NS"), TypeRegistry())
        self.runtimes = {}
        for site_id, arch in (("A", SPARC32), ("B", X86_64)):
            site = self.network.add_site(site_id)
            runtime = SmartRpcRuntime(
                self.network, site, arch,
                resolver=TypeResolver(site, "NS"),
            )
            register_list_types(runtime)
            self.runtimes[site_id] = runtime
        bind_list_server(self.runtimes["B"])
        self.runtimes["A"].import_interface(LIST_OPS)
        self.client = list_client(self.runtimes["A"], "B")
        self.session = None
        self.lists = {}   # head address -> model list
        self.next_value = 0

    # -- session management -----------------------------------------------

    @precondition(lambda self: self.session is None)
    @rule()
    def open_session(self):
        self.session = self.runtimes["A"].session()
        self.session.__enter__()

    @precondition(lambda self: self.session is not None)
    @rule()
    def close_session(self):
        self.session.__exit__(None, None, None)
        self.session = None

    # -- list operations ------------------------------------------------------

    @rule(values=VALUES)
    def build(self, values):
        head = build_list(self.runtimes["A"], values)
        self.lists[head] = list(values)

    @precondition(lambda self: self.session and self.lists)
    @rule(factor=st.integers(min_value=-3, max_value=3),
          data=st.data())
    def scale(self, factor, data):
        head = data.draw(st.sampled_from(sorted(self.lists)))
        self.client.scale(self.session, head, factor)
        self.lists[head] = [v * factor for v in self.lists[head]]

    @precondition(lambda self: self.session and self.lists)
    @rule(count=st.integers(min_value=1, max_value=4), data=st.data())
    def append(self, count, data):
        head = data.draw(st.sampled_from(sorted(self.lists)))
        start = self.next_value
        self.next_value += count
        self.client.append_range(self.session, head, start, count)
        self.lists[head] += list(range(start, start + count))

    @precondition(lambda self: self.session and self.lists)
    @rule(data=st.data())
    def total(self, data):
        head = data.draw(st.sampled_from(sorted(self.lists)))
        assert self.client.total(self.session, head) == sum(
            self.lists[head]
        )

    @precondition(lambda self: self.session and self.lists)
    @rule(data=st.data())
    def drop_negatives(self, data):
        head = data.draw(st.sampled_from(sorted(self.lists)))
        new_head = self.client.drop_negatives(self.session, head)
        model = [v for v in self.lists.pop(head) if v >= 0]
        if new_head != 0:
            self.lists[new_head] = model
        else:
            assert model == []

    # -- invariants ----------------------------------------------------------------

    @invariant()
    def home_memory_matches_model_between_sessions(self):
        # Outside a session every model list must be materialised in
        # A's heap exactly (all dirty data written back).
        if getattr(self, "session", None) is None and hasattr(
            self, "lists"
        ):
            for head, model in self.lists.items():
                assert read_list(self.runtimes["A"], head) == model

    @invariant()
    def smart_sessions_internally_consistent(self):
        if not hasattr(self, "runtimes"):
            return
        for runtime in self.runtimes.values():
            for state in runtime._sessions.values():
                assert session_diagnostics(runtime, state) == []

    def teardown(self):
        if getattr(self, "session", None) is not None:
            self.session.__exit__(None, None, None)


TestListRpcStateMachine = ListRpcMachine.TestCase
TestListRpcStateMachine.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)


# -- fault tolerance: crashes, aborts and the orphan reaper ------------------

REAPER_GROUND = "G"
REAPER_HOMES = ("H", "T")
REAPER_SITES = (REAPER_GROUND,) + REAPER_HOMES


class OrphanReaperMachine(RuleBasedStateMachine):
    """Random interleavings of sessions, peer crashes and reaper sweeps.

    A ground G runs sessions against two exposing homes H and T while
    the machine crashes peers (including the ground itself) at
    arbitrary points and sweeps the reaper on arbitrary survivors.
    However the interleaving goes:

    * a session state that left its runtime's table keeps no protected
      cache pages and no allocation-table entries — nothing leaks,
      whether it departed by clean close, abort or reap;
    * after a reaper sweep no live runtime holds a session that lost a
      participant;
    * every session a live runtime still holds passes the runtime's
      full internal consistency check.
    """

    @initialize()
    def setup(self):
        self.network = Network()
        TypeNameServer(self.network.add_site("NS"), TypeRegistry())
        self.runtimes = {}
        for site_id in REAPER_SITES:
            site = self.network.add_site(site_id)
            runtime = SmartRpcRuntime(
                self.network, site, X86_64,
                resolver=TypeResolver(site, "NS"),
                policy=make_policy("lazy"),
            )
            register_tree_types(runtime)
            runtime.import_interface(TREE_OPS)
            runtime.import_interface(TREE_EXPOSE)
            self.runtimes[site_id] = runtime
        for home in REAPER_HOMES:
            bind_tree_expose(
                self.runtimes[home],
                build_complete_tree(self.runtimes[home], 3),
            )
        self.spec = self.runtimes[REAPER_GROUND].resolver.resolve(
            TREE_NODE_TYPE_ID
        )
        self.crashed = set()
        self.session = None
        # Every session state ever observed, so departed states
        # can still be checked for leaks after their runtime forgot
        # them: id(state) -> (runtime, state).
        self.seen = {}

    # -- bookkeeping ---------------------------------------------------------

    def _track(self):
        for runtime in self.runtimes.values():
            for state in runtime._sessions.values():
                self.seen[id(state)] = (runtime, state)

    def _ages(self):
        # The failure detector's view: crashed sites stopped
        # heartbeating long ago, live ones are fresh.
        return {
            site_id: (99.0 if site_id in self.crashed else 0.0)
            for site_id in REAPER_SITES
        }

    # -- rules ---------------------------------------------------------------

    @precondition(
        lambda self: self.session is None
        and REAPER_GROUND not in self.crashed
    )
    @rule()
    def open_session(self):
        self.session = self.runtimes[REAPER_GROUND].session()
        self.session.__enter__()
        self._track()

    @precondition(lambda self: self.session is not None)
    @rule(peer=st.sampled_from(REAPER_HOMES),
          datum=st.integers(min_value=0, max_value=255))
    def touch_peer(self, peer, datum):
        # A CALL to the peer, a fault-driven fill of the root page and
        # a local dirty write — or, against a crashed peer, the abort
        # path: the runtime must tear the session down and raise.
        ground = self.runtimes[REAPER_GROUND]
        try:
            pointer = tree_expose_client(ground, peer).tree_root(
                self.session
            )
            view = StructView(
                ground.mem, pointer, self.spec, ground.arch
            )
            view.set("data", datum.to_bytes(8, "big"))
        except SessionAbortedError as exc:
            assert exc.reason.startswith("peer-unreachable:")
            self.session = None
        self._track()

    @precondition(lambda self: self.session is not None)
    @rule(peer=st.sampled_from(REAPER_HOMES))
    def activity_transfer(self, peer):
        # A second CALL carries any dirty data as the modified-data
        # piggyback (the checksum traverses the peer's own tree).
        ground = self.runtimes[REAPER_GROUND]
        try:
            tree_expose_client(ground, peer).tree_checksum(
                self.session
            )
        except SessionAbortedError as exc:
            assert exc.reason.startswith("peer-unreachable:")
            self.session = None
        self._track()

    @precondition(lambda self: self.session is not None)
    @rule(peer=st.sampled_from(REAPER_HOMES))
    def allocate_in_peer(self, peer):
        # extended_malloc only batches: the MEMORY_BATCH to the peer
        # flushes at the next activity transfer or at close, and a dead
        # peer there must abort the session like any other exchange.
        ground = self.runtimes[REAPER_GROUND]
        ground.extended_malloc(self.session, peer, TREE_NODE_TYPE_ID)
        self._track()

    @precondition(lambda self: self.session is not None)
    @rule()
    def close_session(self):
        # Clean close — or an abort mid two-phase write-back when a
        # dirty home crashed after the write.
        self._track()
        try:
            self.session.__exit__(None, None, None)
        except SessionAbortedError as exc:
            assert exc.reason.startswith("peer-unreachable:")
        self.session = None

    @precondition(
        lambda self: any(h not in self.crashed for h in REAPER_HOMES)
    )
    @rule(data=st.data())
    def crash_home(self, data):
        live = [h for h in REAPER_HOMES if h not in self.crashed]
        victim = data.draw(st.sampled_from(live))
        self.network.crash(victim)
        self.crashed.add(victim)

    @precondition(lambda self: REAPER_GROUND not in self.crashed)
    @rule()
    def crash_ground(self):
        # The ground vanishes mid-session: whatever state the homes
        # hold for it is now orphaned and only the reaper frees it.
        self.network.crash(REAPER_GROUND)
        self.crashed.add(REAPER_GROUND)
        self.session = None

    @rule()
    def reaper_sweep(self):
        self._track()
        ages = self._ages()
        for site_id in REAPER_SITES:
            if site_id in self.crashed:
                continue
            runtime = self.runtimes[site_id]
            reaped = runtime.reap_orphans(ages, grace=1.0)
            if (
                self.session is not None
                and self.session.session_id in reaped
            ):
                # The ground reaped its own session because a
                # participant died; the context manager is spent.
                self.session = None
        # A sweep leaves no live runtime holding a session that lost
        # a participant.
        for site_id in REAPER_SITES:
            if site_id in self.crashed:
                continue
            for state in self.runtimes[site_id]._sessions.values():
                assert not (state.participants & self.crashed), (
                    site_id,
                    state.session_id,
                    state.participants,
                )
        # ... and never touches a session whose peers are all alive.
        if self.session is not None:
            ground = self.runtimes[REAPER_GROUND]
            assert self.session.session_id in ground._sessions

    # -- invariants ----------------------------------------------------------

    @invariant()
    def departed_sessions_leak_nothing(self):
        if not hasattr(self, "seen"):
            return
        for runtime, state in self.seen.values():
            if runtime._sessions.get(state.session_id) is state:
                continue
            # Closed, aborted or reaped: every protected page must be
            # unmapped and the allocation table empty.
            assert state.cache.footprint() == (0, 0), (
                runtime.site_id,
                state.session_id,
                state.cache.footprint(),
            )

    @invariant()
    def live_sessions_internally_consistent(self):
        if not hasattr(self, "runtimes"):
            return
        for site_id, runtime in self.runtimes.items():
            if site_id in self.crashed:
                continue
            for state in runtime._sessions.values():
                assert session_diagnostics(runtime, state) == []

    def teardown(self):
        if (
            getattr(self, "session", None) is not None
            and REAPER_GROUND not in self.crashed
        ):
            try:
                self.session.__exit__(None, None, None)
            except SessionAbortedError:
                pass


TestOrphanReaperMachine = OrphanReaperMachine.TestCase
TestOrphanReaperMachine.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
