"""Properties of the page-access-token fast path.

Three obligations:

* **Freshness.** A cached token must never let the program observe
  pre-invalidation protection or post-invalidation bytes: any
  interleaving of single and multi-access loads and stores (within a
  page or straddling two), raw-plane writes, ``protect`` flips and
  ``unmap_page`` calls must behave exactly like a shadow model that
  re-checks everything on every access.
* **Coherency silence.** Sessions that interleave bulk-read calls
  (``total``, one access run per node) with writing calls (``scale``)
  must stay free of coherency-sanitizer diagnostics and return the
  same values the checked path returns — the token path cannot hide
  an invalidation from the protocol.
* **Touch accounting.**  A page whose cache has nothing left to score
  goes quiet: token accesses to it stop calling the touch observer
  until the next generation bump.  Over generated sessions — repeated
  walks, a second fill after everything was touched, ``pipelined``
  prefetch, ``lazy``, ``packed`` pages of many rows,
  ``extended_malloc`` / ``extended_free`` — the shipped-vs-touched
  ledgers must come out exactly as on the checked oracle, whose every
  access reports.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.diagnostics import DiagnosticCollector
from repro.analysis.sanitizer import check_events
from repro.bench.harness import CALLEE, SIMNET, make_world, resolve_policy
from repro.memory.accessor import Mem
from repro.memory.address_space import AddressSpace
from repro.memory.faults import AccessViolation
from repro.memory.page import PAGE_SIZE_DEFAULT, Protection
from repro.workloads.linked_list import build_list, list_client
from tests.memory.checked import checked_mem

NUM_PAGES = 3
PAGE = PAGE_SIZE_DEFAULT

#: One interleaved step: (op, page index, offset, size-ish payload).
#: ``*_many`` ops make one access stand for ``size`` modelled accesses;
#: offsets near the page end straddle into the next page number, which
#: may be mapped, protected or not mapped at all, so the checked
#: fallback is held to the model too.
ops = st.sampled_from(["load", "load_many", "store", "store_many",
                       "raw_write", "protect_ro", "protect_rw", "unmap",
                       "remap"])
steps = st.lists(
    st.tuples(
        ops,
        st.integers(min_value=0, max_value=NUM_PAGES - 1),
        st.one_of(
            st.integers(min_value=0, max_value=120),
            st.integers(min_value=PAGE - 16, max_value=PAGE - 1),
        ),
        st.integers(min_value=1, max_value=16),
    ),
    max_size=40,
)


class Shadow:
    """A re-check-everything model of the same address space."""

    def __init__(self, page_size: int) -> None:
        self.page_size = page_size
        self.pages = {}  # number -> (bytearray, Protection)

    def _pieces(self, address: int, size: int):
        """``(entry, offset, length)`` per page of the span, or None
        when any of those pages is unmapped."""
        pieces = []
        end = address + size
        while address < end:
            number, offset = divmod(address, self.page_size)
            entry = self.pages.get(number)
            if entry is None:
                return None
            length = min(end - address, self.page_size - offset)
            pieces.append((entry, offset, length))
            address += length
        return pieces

    def read(self, address: int, size: int):
        pieces = self._pieces(address, size)
        if pieces is None or not all(e[1].readable for e, _, _ in pieces):
            return None  # access must not succeed
        return b"".join(bytes(e[0][o:o + n]) for e, o, n in pieces)

    def write(self, address: int, data: bytes, check: bool = True) -> bool:
        pieces = self._pieces(address, len(data))
        if pieces is None or (
            check and not all(e[1].writable for e, _, _ in pieces)
        ):
            return False
        cursor = 0
        for entry, offset, length in pieces:
            entry[0][offset:offset + length] = data[cursor:cursor + length]
            cursor += length
        return True


@settings(max_examples=60, deadline=None)
@given(steps, st.randoms(use_true_random=False))
def test_tokens_always_match_a_recheck_model(trace, rng):
    space = AddressSpace("P")
    mem = Mem(space)
    shadow = Shadow(space.page_size)
    assert space.page_size == PAGE
    base = space.map_region(NUM_PAGES)
    first = space.page_number(base)
    numbers = list(range(first, first + NUM_PAGES))
    for number in numbers:
        shadow.pages[number] = (
            bytearray(space.page_size), Protection.READ_WRITE
        )
    for op, index, offset, size in trace:
        number = numbers[index]
        address = number * space.page_size + offset
        mapped = shadow.pages.get(number)
        accesses = size if op.endswith("_many") else 1
        if op in ("load", "load_many"):
            expected = shadow.read(address, size)
            if expected is None:
                with pytest.raises(Exception):
                    mem.load(address, size, accesses)
            else:
                assert mem.load(address, size, accesses) == expected
        elif op in ("store", "store_many"):
            payload = bytes(rng.randrange(256) for _ in range(size))
            if shadow.write(address, payload):
                mem.store(address, payload, accesses)
            else:
                with pytest.raises(Exception):
                    mem.store(address, payload, accesses)
        elif op == "raw_write":
            # The raw plane ignores protection but needs the mapping.
            payload = bytes(rng.randrange(256) for _ in range(size))
            if shadow.write(address, payload, check=False):
                space.write_raw(address, payload)
        elif op == "protect_ro" and mapped is not None:
            space.protect(number, Protection.READ)
            shadow.pages[number] = (mapped[0], Protection.READ)
        elif op == "protect_rw" and mapped is not None:
            space.protect(number, Protection.READ_WRITE)
            shadow.pages[number] = (mapped[0], Protection.READ_WRITE)
        elif op == "unmap" and mapped is not None:
            space.unmap_page(number)
            del shadow.pages[number]
        elif op == "remap" and mapped is None:
            # Spaces never re-map a vacated number; a fresh region
            # takes over the slot (still bumps the generation, which
            # is the invalidation being exercised).
            fresh = space.map_region(1)
            numbers[index] = space.page_number(fresh)
            shadow.pages[numbers[index]] = (
                bytearray(space.page_size), Protection.READ_WRITE
            )
    for number, (data, _) in shadow.pages.items():
        assert space.read_raw(number * PAGE, PAGE) == bytes(data)


def sanitize(events):
    collector = DiagnosticCollector()
    check_events(events, collector)
    return sorted(d.code for d in collector)


class TestBulkReadersStayCoherent:
    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(min_value=1, max_value=48),
        st.lists(st.sampled_from(["total", "scale"]),
                 min_size=2, max_size=5),
        st.sampled_from(["paper", "lazy", "adaptive"]),
    )
    def test_interleaved_bulk_reads_and_writes(
        self, nodes, calls, method
    ):
        values = list(range(nodes))
        with make_world(method, transport=SIMNET, trace=True) as world:
            head = build_list(world.caller, values)
            stub = list_client(world.caller, CALLEE)
            factor = 1
            with world.caller.session() as session:
                for call in calls:
                    if call == "total":
                        got = stub.total(session, head)
                        assert got == factor * sum(values)
                    else:
                        assert stub.scale(session, head, 2) == nodes
                        factor *= 2
            events = list(world.stats.events)
        assert events, "tracing was enabled but recorded nothing"
        assert sanitize(events) == []


#: One call of a generated session.  ``other`` walks a second list, a
#: fill that lands after the first list may all have been touched;
#: ``append`` allocates with ``extended_malloc`` and ``drop`` frees the
#: negative nodes with ``extended_free``.
list_calls = st.sampled_from(["total", "other", "scale", "append", "drop"])

#: Label -> (preset, field overrides).  ``packed`` puts many rows on
#: one page, so a page is touched before all of its rows are.
touch_policies = {
    "paper": ("paper", {}),
    "paper-packed": ("paper", {"allocation_strategy": "packed"}),
    "pipelined": ("pipelined", {}),
    "lazy": ("lazy", {}),
}


def _touch_accounting(method, values, other_values, sessions, checked):
    """Per call: (call, result, session ledger, untouched shipped rows),
    then the world's ledger, for one run of the generated sessions."""
    preset, fields = touch_policies[method]
    with make_world(resolve_policy(preset, **fields),
                    transport=SIMNET) as world:
        if checked:
            for runtime in (world.caller, world.callee):
                # The oracle: every access takes the checked path,
                # which reports it to the observer.
                mem = runtime.mem
                runtime.mem = checked_mem(
                    runtime.space, clock=mem.clock,
                    cost_model=mem.cost_model, stats=mem.stats,
                )
                runtime.mem.observer = mem.observer
        head = build_list(world.caller, values)
        other = build_list(world.caller, other_values)
        stub = list_client(world.caller, CALLEE)
        seen = []
        for calls in sessions:
            with world.caller.session() as session:
                for call in calls:
                    if call == "total":
                        result = stub.total(session, head)
                    elif call == "other":
                        result = stub.total(session, other)
                    elif call == "scale":
                        result = stub.scale(session, head, 3)
                    elif call == "append" and head:
                        result = stub.append_range(session, head, -2, 3)
                    elif call == "drop":
                        result = head = stub.drop_negatives(session, head)
                    else:
                        continue
                    state = world.callee.session_state(session.session_id)
                    seen.append((
                        call,
                        result,
                        state.transfer_stats.as_dict(),
                        state.cache.untouched_shipped,
                    ))
        return seen, world.stats.transfer_ledger.as_dict()


class TestTouchAccounting:
    @pytest.mark.parametrize("method", sorted(touch_policies))
    @settings(max_examples=6, deadline=None)
    @given(
        st.lists(st.integers(min_value=-4, max_value=9),
                 min_size=1, max_size=24),
        st.lists(st.integers(min_value=0, max_value=9),
                 min_size=1, max_size=12),
        st.lists(st.lists(list_calls, max_size=4), min_size=1, max_size=2),
    )
    def test_quiet_pages_score_as_the_checked_oracle(
        self, method, values, other_values, tails
    ):
        # Every session opens with two walks of the same list, so its
        # pages settle, and a session after the first reuses the page
        # numbers the one before it settled.
        sessions = [["total", "total"] + tail for tail in tails]
        sessions.insert(0, ["total"])
        fast = _touch_accounting(method, values, other_values, sessions,
                                 checked=False)
        oracle = _touch_accounting(method, values, other_values, sessions,
                                   checked=True)
        assert fast == oracle
