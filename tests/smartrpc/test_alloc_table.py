"""Tests for the data allocation table (the paper's Table 1): the cache
area's long-pointer index and per-page row lists."""

import pytest

from repro.smartrpc.alloc_table import alloc_entry, table_rows
from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.long_pointer import PROVISIONAL_BASE, LongPointer
from repro.smartrpc.validate import session_diagnostics


@pytest.fixture
def cache(smart_pair):
    """An empty cache area on B, holding A's data."""
    return smart_pair.b.ensure_smart_session("s", "A").cache


def place(cache, space="A", address=0x1000, size=16, alignment=8):
    return cache.place(LongPointer(space, address, "t"), size, alignment)


def entry(space="A", address=0x1000, local=0x5000, size=16, page=5,
          offset=0):
    return alloc_entry(
        pointer=LongPointer(space, address, "t"),
        local_address=local,
        size=size,
        page_number=page,
        offset=offset,
    )


def listed_pages(cache):
    """The cache pages holding at least one row, in order."""
    return sorted(number for number, page in cache.pages.items() if page)


class TestAddRemove:
    def test_add_and_lookup_by_pointer(self, cache):
        row = place(cache)
        assert cache.entry_for(row.pointer) is row
        assert len(cache.rows) == 1

    def test_duplicate_pointer_rejected(self, cache):
        place(cache)
        with pytest.raises(SmartRpcError):
            place(cache, size=24)

    def test_duplicate_local_address_rejected(self, smart_pair, cache):
        # Placement hands out every local address, so only a row forged
        # behind its back can repeat one; the validator rejects it.
        row = place(cache)
        assert place(cache, address=0x2000).local_address != row.local_address
        forged = entry(
            address=0x3000, local=row.local_address, size=row.size,
            page=row.page_number, offset=row.offset,
        )
        cache.pages[row.page_number].append(forged)
        cache.rows[forged.pointer] = forged
        found = session_diagnostics(smart_pair.b, cache.state)
        assert [d.code for d in found] == ["SRPC204"]

    def test_remove(self, cache):
        row = place(cache)
        cache.release_entry(row)
        assert cache.entry_for(row.pointer) is None
        assert cache.entry_containing(row.local_address) is None
        assert len(cache.rows) == 0

    def test_remove_unknown_rejected(self, cache):
        with pytest.raises(SmartRpcError):
            cache.release_entry(entry())

    def test_iteration(self, cache):
        rows = [place(cache, address=0x1000 + i) for i in range(3)]
        assert set(id(e) for e in cache.rows.values()) == set(
            id(r) for r in rows
        )


class TestLocalAddressLookup:
    def test_containing_lookup_hits_interior(self, cache):
        row = place(cache, size=16)
        assert cache.entry_containing(row.local_address) is row
        assert cache.entry_containing(row.local_address + 15) is row
        assert cache.entry_containing(row.local_address + 16) is None
        assert cache.entry_containing(row.local_address - 1) is None

    def test_multiple_entries_bisected_correctly(self, cache):
        rows = [
            place(cache, address=0x1000 + i, size=16, alignment=32)
            for i in range(10)
        ]
        assert len({row.page_number for row in rows}) == 1
        for row in rows:
            assert cache.entry_containing(row.local_address + 8) is row
            gap = row.local_address + 20  # between entries
            assert cache.entry_containing(gap) is None


class TestPageIndex:
    def test_entries_on_page(self, cache):
        on_first = place(cache)
        cache.datum_seal()
        on_second = place(cache, address=0x2000)
        assert cache.pages[on_first.page_number] == [on_first]
        assert cache.pages[on_second.page_number] == [on_second]
        assert on_second.page_number + 1 not in cache.pages
        assert listed_pages(cache) == [
            on_first.page_number, on_second.page_number
        ]

    def test_remove_clears_page_index(self, cache):
        row = place(cache)
        cache.release_entry(row)
        assert listed_pages(cache) == []


class TestRepoint:
    def test_repoint_swaps_long_pointer_in_place(self, cache):
        row = place(cache, address=PROVISIONAL_BASE + 1)
        real = row.pointer.with_address(0x3000)
        cache.repoint(row, real)
        assert cache.entry_for(real) is row
        assert row.pointer == real
        assert cache.entry_containing(row.local_address) is row

    def test_repoint_to_existing_pointer_rejected(self, cache):
        first = place(cache, address=0x1000)
        second = place(cache, address=0x2000)
        with pytest.raises(SmartRpcError):
            cache.repoint(first, second.pointer)

    def test_repoint_foreign_entry_rejected(self, cache):
        with pytest.raises(SmartRpcError):
            cache.repoint(entry(), LongPointer("A", 0x9000, "t"))


class TestPresentation:
    def test_rows_sorted_by_page_then_offset(self):
        rows = table_rows([
            entry(address=0x1000, local=0x6010, page=6, offset=16),
            entry(address=0x2000, local=0x5000, page=5, offset=0),
            entry(address=0x3000, local=0x6000, page=6, offset=0),
        ])
        assert [(r[0], r[1]) for r in rows] == [(5, 0), (6, 0), (6, 16)]
