"""What a cold session keeps alive, counted in GC-tracked objects.

A cold 4 096-node list maps one placeholder page per datum, and the
cyclic collector scans every container object a session holds.  A
placeholder page is one ``CachePage`` (its page, its bookkeeping and
its row list at once), one ``AllocEntry`` row and the row's
``LongPointer``: three tracked objects.  The budget is four per page,
so the count can drift by a few session-wide objects but not by
another object per page.

The home's side is held to a constant per request: its walk packs each
datum as it emits it, keyed by home address, so what it leaves alive
(the walker, its memos, the emitted address list, the handle pool) does
not grow with the data.  It left an item, a ``LongPointer`` and a
values tuple per datum (3.01 a datum over 1 024) while the walk and
the encode were two passes.

Each test records its measured figure as a junit property.
"""

import gc

from repro.bench.harness import CALLEE, CALLER, make_world
from repro.smartrpc.closure import ClosureWalker
from repro.smartrpc.policy import UNBOUNDED
from repro.workloads.linked_list import build_list, list_client

NODES = 4096

#: GC-tracked objects a cold session may add per placeholder page.
BUDGET_PER_PAGE = 4

#: Data one home walk emits, and the GC-tracked objects it may leave
#: alive in all when it returns.
WALKED = 1024
HOME_BUDGET = 16


def test_cold_session_stays_within_the_object_budget(record_property):
    world = make_world("paper")
    values = list(range(NODES))
    head = build_list(world.caller, values)
    stub = list_client(world.caller, CALLEE)
    # A first session fills every per-runtime memo (wire plans, type
    # resolutions), so the measured one adds only what a session holds.
    with world.caller.session() as session:
        assert stub.total(session, head) == sum(values)
    gc.collect()
    before = len(gc.get_objects())
    with world.caller.session() as session:
        assert stub.total(session, head) == sum(values)
        gc.collect()
        grown = len(gc.get_objects()) - before
        state = world.callee.session_state(session.session_id)
        pages, rows = state.cache.footprint()
    assert (pages, rows) == (NODES, NODES)
    record_property("objects_per_page", round(grown / pages, 2))
    assert grown <= BUDGET_PER_PAGE * pages, (
        f"{grown} tracked objects for {pages} placeholder pages "
        f"({grown / pages:.2f} a page, budget {BUDGET_PER_PAGE})"
    )


def test_a_home_walk_keeps_no_object_per_datum(record_property):
    world = make_world("paper")
    home = world.caller
    head = build_list(home, list(range(WALKED)))
    state = home.ensure_smart_session("walk", CALLER)
    # A first walk fills the runtime's memos (wire plans, intern table).
    ClosureWalker(home, state, UNBOUNDED).walk([head])
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        walker = ClosureWalker(home, state, UNBOUNDED)
        emitted = walker.walk([head])
        alive = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(emitted) == WALKED
    record_property("home_objects_per_request", alive)
    assert alive <= HOME_BUDGET, (
        f"{alive} tracked objects alive after a {WALKED}-datum walk "
        f"({alive / WALKED:.2f} a datum, budget {HOME_BUDGET} a request)"
    )
