"""The cold fill path's observable numbers, pinned.

A placeholder page is backed only as far as its bump mark, a batch
releases its completed pages in one pass, and the allocation table
keeps one page index.  None of that may move a page number, a fault, a
message, a wire byte or a ledger entry, so these simnet sessions must
reproduce ``fixtures/fill_identity.json`` exactly:

* a cold 4 096-node list under ``paper`` and under ``paper`` with each
  other placeholder strategy (``packed``, ``isolated``, as the
  ``ablation_alloc`` experiment builds them);
* a cold 2 047-node tree under ``paper`` (two pointer slots a datum);
* a 256-node chase under ``lazy``.

The list and chase rows were recorded with full 4 KB page buffers, the
others before a batch built its placeholders in one pass; re-record
only for a change that is meant to move these numbers::

    PYTHONPATH=src python tests/smartrpc/test_fill_identity.py
"""

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.bench.harness import CALLEE, make_world, resolve_policy
from repro.smartrpc.alloc_table import table_rows
from repro.workloads.linked_list import build_list, list_client
from repro.workloads.traversal import expected_search_checksum, tree_client
from repro.workloads.trees import build_complete_tree

FIXTURE = Path(__file__).with_name("fixtures") / "fill_identity.json"

#: Session name -> (transfer policy, placeholder strategy or None for
#: the policy's own, data shape, node count).
SESSIONS = {
    "list_cold_paper": ("paper", None, "list", 4096),
    "list_cold_packed": ("paper", "packed", "list", 4096),
    "list_cold_isolated": ("paper", "isolated", "list", 4096),
    "tree_cold_paper": ("paper", None, "tree", 2047),
    "chase_lazy": ("lazy", None, "list", 256),
}


def run_session(
    policy: str, strategy: Optional[str], shape: str, nodes: int
) -> Tuple[Dict[str, Any], List[Tuple[int, int, int]]]:
    """One cold callee walk; its snapshot and ``(page, buffer, bump)``s.

    The snapshot is what the fixture records; the triples are each
    cache page's buffer length next to its bump mark, read while the
    session is still open.
    """
    knobs = {} if strategy is None else {"allocation_strategy": strategy}
    world = make_world(resolve_policy(policy, **knobs))
    if shape == "list":
        values = list(range(nodes))
        root = build_list(world.caller, values)
        stub = list_client(world.caller, CALLEE)

        def walk(session) -> None:
            assert stub.total(session, root) == sum(values)

    else:
        root = build_complete_tree(world.caller, nodes)
        stub = tree_client(world.caller, CALLEE)

        def walk(session) -> None:
            assert stub.search(session, root, nodes) == (
                expected_search_checksum(nodes, nodes)
            )

    world.stats.reset()
    space = world.callee.space
    with world.caller.session() as session:
        walk(session)
        state = world.callee.session_state(session.session_id)
        cache = state.cache
        rows = [
            [page, offset, list(pointer)]
            for page, offset, pointer in table_rows(cache.rows.values())
        ]
        backing = [
            (number, len(space.page(number).data), page.bump)
            for number, page in sorted(cache.pages.items())
            if page
        ]
        snapshot = {
            "rows": rows,
            "high_water_page": space.high_water_page,
            "session_ledger": state.transfer_stats.as_dict(),
        }
    stats = world.stats
    snapshot.update(
        page_faults=stats.page_faults,
        messages=stats.total_messages,
        bytes=stats.total_bytes,
        ledger=stats.transfer_ledger.as_dict(),
    )
    return snapshot, backing


@pytest.fixture(scope="module")
def recorded() -> Dict[str, Any]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_session_reproduces_the_fixture(name, recorded):
    snapshot, backing = run_session(*SESSIONS[name])
    assert snapshot == recorded[name]
    # Each placeholder page is backed exactly as far as its data reach.
    assert backing
    assert [row for row in backing if row[1] != row[2]] == []


def main() -> int:
    FIXTURE.parent.mkdir(exist_ok=True)
    # One compact line per session: the list session alone has 4 096
    # table rows.
    lines = [
        f" {json.dumps(name)}: "
        + json.dumps(
            run_session(*SESSIONS[name])[0],
            sort_keys=True,
            separators=(",", ":"),
        )
        for name in sorted(SESSIONS)
    ]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
