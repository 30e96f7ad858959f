"""What a cold session keeps alive, counted in GC-tracked objects.

A cold 4 096-node list maps one placeholder page per datum, and the
cyclic collector scans every container object a session holds.  A
placeholder page is one ``CachePage`` (its page, its bookkeeping and
its row list at once), one ``AllocEntry`` row and the row's
``LongPointer``: three tracked objects.  The budget is four per page,
so the count can drift by a few session-wide objects but not by
another object per page.
"""

import gc

from repro.bench.harness import CALLEE, make_world
from repro.workloads.linked_list import build_list, list_client

NODES = 4096

#: GC-tracked objects a cold session may add per placeholder page.
BUDGET_PER_PAGE = 4


def test_cold_session_stays_within_the_object_budget():
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
    assert grown <= BUDGET_PER_PAGE * pages, (
        f"{grown} tracked objects for {pages} placeholder pages "
        f"({grown / pages:.2f} a page, budget {BUDGET_PER_PAGE})"
    )
