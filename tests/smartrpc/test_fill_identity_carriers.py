"""The lazy chase fills on the real carriers as it does on simnet.

``test_fill_identity.py`` pins the fill path's observable numbers on
simnet.  A fault on shm or tcp runs the same fill through a real
exchange, so the 256-node ``lazy`` chase there must reproduce the same
fixture row — every table row and page number, the high-water page,
the faults, messages and wire bytes, and both ledgers.  None of them
reads a clock, so nothing is re-recorded for a carrier.
"""

import json

import pytest

from repro.bench.harness import CALLEE, make_world, resolve_policy
from repro.smartrpc.alloc_table import table_rows
from repro.workloads.linked_list import build_list, list_client
from tests.smartrpc.test_fill_identity import FIXTURE, SESSIONS

NAME = "chase_lazy"


@pytest.mark.parametrize("carrier", ["shm", "tcp"])
def test_the_lazy_chase_reproduces_the_fixture(carrier):
    policy, strategy, shape, nodes = SESSIONS[NAME]
    assert (strategy, shape) == (None, "list")
    recorded = json.loads(FIXTURE.read_text())[NAME]
    with make_world(resolve_policy(policy), transport=carrier) as world:
        values = list(range(nodes))
        root = build_list(world.caller, values)
        stub = list_client(world.caller, CALLEE)
        world.stats.reset()
        space = world.callee.space
        with world.caller.session() as session:
            assert stub.total(session, root) == sum(values)
            state = world.callee.session_state(session.session_id)
            cache = state.cache
            snapshot = {
                "rows": [
                    [page, offset, list(pointer)]
                    for page, offset, pointer in table_rows(
                        cache.rows.values()
                    )
                ],
                "high_water_page": space.high_water_page,
                "session_ledger": state.transfer_stats.as_dict(),
            }
            backing = [
                (number, len(space.page(number).data), page.bump)
                for number, page in sorted(cache.pages.items())
                if page
            ]
        stats = world.stats
        snapshot.update(
            page_faults=stats.page_faults,
            messages=stats.total_messages,
            bytes=stats.total_bytes,
            ledger=stats.transfer_ledger.as_dict(),
        )
    assert snapshot == recorded
    assert backing and [row for row in backing if row[1] != row[2]] == []
