"""A world must survive any number of cold sessions.

Every session maps a protected page per fetched datum and unmaps the
lot at its end.  ``AddressSpace`` once only ever counted page numbers
upwards, so a callee on a 32-bit machine ran out of address space on
its 257th cold walk of a 4096-node list (``pointer 0x100000000 does
not fit in 4 bytes``).  Unmapped numbers are handed out again now: the
high-water mark after a session is where it stood after the first.
"""

from repro.bench.harness import CALLEE, make_world
from repro.memory.accessor import Mem
from repro.workloads.linked_list import build_list, list_client

NODES = 512
SESSIONS = 40


def test_cold_sessions_do_not_creep_up_the_address_space():
    with make_world("paper") as world:
        values = list(range(NODES))
        head = build_list(world.caller, values)
        stub = list_client(world.caller, CALLEE)
        spaces = (world.caller.space, world.callee.space)
        # A long-lived accessor of the callee's space: its page tokens
        # must not survive into a session that reuses their numbers.
        bystander = Mem(world.callee.space)
        marks = []
        for _ in range(SESSIONS):
            with world.caller.session() as session:
                assert stub.total(session, head) == sum(values)
                cache = world.callee.session_state(session.session_id).cache
                pages, _entries = cache.footprint()
                assert pages >= NODES
                resident = next(
                    entry for entry in cache.rows.values() if entry.resident
                )
                assert bystander.load(
                    resident.local_address, resident.size
                ) == world.callee.space.read_raw(
                    resident.local_address, resident.size
                )
            assert cache.footprint() == (0, 0)
            marks.append(tuple(space.high_water_page for space in spaces))
        assert marks[0] == marks[-1]
        assert len(set(marks)) == 1
