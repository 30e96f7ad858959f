"""Differential property: the cache area against the standalone table.

The cache area is the data allocation table (``repro.smartrpc.cache``):
its page dict and its long-pointer dict are the table's two indexes,
and it files, looks up, re-keys and drops every row itself.
``tests/smartrpc/reference_table.py`` keeps the class that used to hold
those indexes.  Random placements run through a cache under each
placement strategy — rows of many sizes and alignments, spans over two
and three pages, sealed and open pages, fresh data, rows that arrive,
are released and are re-pointed — and the oracle is fed a copy of every
row the cache files.  After every step both must agree on ``entry_for``
of every pointer seen, on ``entry_containing`` around every row, on the
row count and on each page's row list; a duplicate pointer, an unknown
row and a re-point collision must fail both with the same text.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.namesvc.client import TypeResolver
from repro.simnet.network import Network
from repro.smartrpc.alloc_table import alloc_entry
from repro.smartrpc.cache import STRATEGIES
from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.long_pointer import LongPointer
from repro.smartrpc.policy import make_policy
from repro.smartrpc.runtime import SmartRpcRuntime
from repro.xdr.arch import X86_64
from tests.smartrpc.reference_table import DataAllocationTable

PAGE = 4096
#: Row sizes: small ones share pages, the last six span two or three.
SIZES = [1, 8, 12, 16, 24, 40, 100, 1000, 2048, 4000, PAGE,
         PAGE + 1, 6000, 2 * PAGE, 2 * PAGE + 1, 10000, 3 * PAGE]

#: A few homes and addresses, so pointers repeat and re-points collide.
pointers = st.builds(
    LongPointer,
    st.sampled_from(["A", "Z"]),
    st.integers(min_value=1, max_value=24),
    st.just("t"),
)
picks = st.integers(min_value=0, max_value=63)
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("place"), pointers, st.sampled_from(SIZES),
            st.sampled_from([1, 2, 4, 8]),
        ),
        st.tuples(st.just("fresh"), pointers, st.sampled_from(SIZES)),
        st.tuples(st.just("seal")),
        st.tuples(st.just("finish")),
        st.tuples(st.just("resident"), picks),
        st.tuples(st.just("release"), picks),
        st.tuples(st.just("release_stale"), picks),
        st.tuples(st.just("repoint"), picks, pointers),
        st.tuples(st.just("repoint_foreign"), pointers),
    ),
    max_size=40,
)


def cache_for(strategy):
    """An empty cache area under ``strategy``; placement resolves no
    type, so one runtime and no name server will do."""
    network = Network()
    site = network.add_site("B")
    runtime = SmartRpcRuntime(
        network, site, X86_64, resolver=TypeResolver(site, "NS"),
        policy=make_policy("paper", allocation_strategy=strategy),
    )
    return runtime.ensure_smart_session("s", "A").cache


def copy(row):
    return alloc_entry(
        row.pointer, row.local_address, row.size, row.page_number,
        row.offset,
    )


def key(row):
    if row is None:
        return None
    return (
        tuple(row.pointer), row.local_address, row.size, row.page_number,
        row.offset,
    )


def same_error(mine, theirs):
    with pytest.raises(SmartRpcError) as raised:
        mine()
    with pytest.raises(SmartRpcError) as expected:
        theirs()
    assert str(raised.value) == str(expected.value)


def agree(cache, oracle, live, stale, seen):
    assert len(cache.rows) == len(oracle) == len(live)
    for pointer in seen:
        assert key(cache.entry_for(pointer)) == key(
            oracle.entry_for(pointer)
        )
    for row, twin in live:
        assert cache.entry_for(row.pointer) is row
        assert oracle.entry_for(twin.pointer) is twin
    probes = set()
    for row, _twin in live + stale:
        start, end = row.local_address, row.local_address + row.size
        probes.update((start - 1, start, start + 1, end - 1, end))
        probes.update(range(start - start % PAGE, end, PAGE))
    for address in probes:
        assert key(cache.entry_containing(address)) == key(
            oracle.entry_containing(address)
        ), hex(address)
    assert sorted(n for n, page in cache.pages.items() if page) == (
        oracle.pages()
    )
    for number, page in cache.pages.items():
        assert [key(row) for row in page] == [
            key(row) for row in oracle.entries_on_page(number)
        ], number


@settings(
    max_examples=240,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.sampled_from(STRATEGIES), steps)
def test_cache_area_matches_the_standalone_table(strategy, plan):
    cache = cache_for(strategy)
    oracle = DataAllocationTable(cache.page_size)
    live, stale, seen = [], [], set()
    for step in plan:
        op = step[0]
        if op in ("place", "fresh"):
            pointer = step[1]
            seen.add(pointer)
            if cache.entry_for(pointer) is not None:
                size = step[2]
                same_error(
                    lambda: cache.place(pointer, size, 8),
                    lambda: oracle.add(alloc_entry(pointer, 0, size, 0, 0)),
                )
                continue
            if op == "place":
                row = cache.place(pointer, step[2], step[3])
            else:
                row = cache.allocate_fresh(pointer, step[2])
            twin = copy(row)
            oracle.add(twin)
            live.append((row, twin))
        elif op == "seal":
            if cache.datum_seal is not None:
                cache.datum_seal()
        elif op == "finish":
            cache.finish_batch()
        elif op == "resident":
            if live:
                cache.mark_resident(live[step[1] % len(live)][0])
        elif op == "release":
            if live:
                row, twin = live.pop(step[1] % len(live))
                cache.release_entry(row)
                oracle.remove(twin)
                stale.append((row, twin))
        elif op == "release_stale":
            if stale:
                row, twin = stale[step[1] % len(stale)]
            else:
                row = alloc_entry(LongPointer("A", 999, "t"), 0, 8, 0, 0)
                twin = copy(row)
            same_error(
                lambda: cache.release_entry(row),
                lambda: oracle.remove(twin),
            )
        elif op == "repoint":
            if not live:
                continue
            row, twin = live[step[1] % len(live)]
            pointer = step[2]
            seen.add(pointer)
            if cache.entry_for(pointer) is not None:
                same_error(
                    lambda: cache.repoint(row, pointer),
                    lambda: oracle.repoint(twin, pointer),
                )
            else:
                cache.repoint(row, pointer)
                oracle.repoint(twin, pointer)
        else:  # repoint_foreign: a row neither ever filed
            pointer = step[1]
            seen.add(pointer)
            foreign = alloc_entry(LongPointer("A", 999, "t"), 0, 8, 0, 0)
            same_error(
                lambda: cache.repoint(foreign, pointer),
                lambda: oracle.repoint(copy(foreign), pointer),
            )
        agree(cache, oracle, live, stale, seen)
