"""Session ids: what every session-stamped message carries on the wire."""

import itertools

from repro.bench.harness import CALLEE, FULLY_LAZY, make_world
from repro.rpc import session as rpc_session
from repro.workloads.linked_list import build_list, list_client


def test_base36_digits():
    assert [rpc_session._base36(n) for n in (0, 1, 9, 10, 35, 36, 1295)] == [
        "0", "1", "9", "a", "z", "10", "zz",
    ]


def test_session_bytes_constant_past_the_hundredth_session(monkeypatch):
    """150 identical cold sessions from a fresh counter move the same
    bytes each: the id is a padded XDR string, and in decimal ``A#100``
    was a word longer than ``A#99`` on every session-stamped message —
    which is what ``srpcbench`` reads as a failed op."""
    monkeypatch.setattr(rpc_session, "_session_numbers", itertools.count(1))
    with make_world(FULLY_LAZY) as world:
        head = build_list(world.caller, list(range(8)))
        stub = list_client(world.caller, CALLEE)
        sizes = []
        for _ in range(150):
            world.stats.reset()
            with world.caller.session() as session:
                assert stub.total(session, head) == 28
            sizes.append(world.stats.total_bytes)
    assert set(sizes) == {sizes[0]}
