"""Tests for the data allocation table (the paper's Table 1)."""

import pytest

from repro.smartrpc.alloc_table import DataAllocationTable, alloc_entry
from repro.smartrpc.errors import SmartRpcError
from repro.smartrpc.long_pointer import PROVISIONAL_BASE, LongPointer


def entry(space="A", address=0x1000, local=0x5000, size=16, page=5,
          offset=0):
    return alloc_entry(
        pointer=LongPointer(space, address, "t"),
        local_address=local,
        size=size,
        page_number=page,
        offset=offset,
    )


class TestAddRemove:
    def test_add_and_lookup_by_pointer(self):
        table = DataAllocationTable()
        row = entry()
        table.add(row)
        assert table.entry_for(row.pointer) is row
        assert len(table) == 1

    def test_duplicate_pointer_rejected(self):
        table = DataAllocationTable()
        table.add(entry())
        with pytest.raises(SmartRpcError):
            table.add(entry(local=0x6000))

    def test_duplicate_local_address_rejected(self):
        table = DataAllocationTable()
        table.add(entry())
        with pytest.raises(SmartRpcError):
            table.add(entry(address=0x2000))

    def test_remove(self):
        table = DataAllocationTable()
        row = entry()
        table.add(row)
        table.remove(row)
        assert table.entry_for(row.pointer) is None
        assert table.entry_containing(row.local_address) is None
        assert len(table) == 0

    def test_remove_unknown_rejected(self):
        table = DataAllocationTable()
        with pytest.raises(SmartRpcError):
            table.remove(entry())

    def test_iteration(self):
        table = DataAllocationTable()
        rows = [entry(address=0x1000 + i, local=0x5000 + 16 * i, offset=16 * i)
                for i in range(3)]
        for row in rows:
            table.add(row)
        assert set(id(e) for e in table) == set(id(r) for r in rows)


class TestLocalAddressLookup:
    def test_containing_lookup_hits_interior(self):
        table = DataAllocationTable()
        row = entry(local=0x5000, size=16)
        table.add(row)
        assert table.entry_containing(0x5000) is row
        assert table.entry_containing(0x500F) is row
        assert table.entry_containing(0x5010) is None
        assert table.entry_containing(0x4FFF) is None

    def test_multiple_entries_bisected_correctly(self):
        table = DataAllocationTable()
        rows = [
            entry(address=0x1000 + i, local=0x5000 + 32 * i, size=16,
                  offset=32 * i)
            for i in range(10)
        ]
        for row in rows:
            table.add(row)
        for index, row in enumerate(rows):
            assert table.entry_containing(row.local_address + 8) is row
            gap = row.local_address + 20  # between entries
            assert table.entry_containing(gap) is None


class TestPageIndex:
    def test_entries_on_page(self):
        table = DataAllocationTable()
        on_five = entry(page=5)
        on_six = entry(address=0x2000, local=0x6000, page=6)
        table.add(on_five)
        table.add(on_six)
        assert table.entries_on_page(5) == [on_five]
        assert table.entries_on_page(6) == [on_six]
        assert table.entries_on_page(7) == []
        assert table.pages() == [5, 6]

    def test_remove_clears_page_index(self):
        table = DataAllocationTable()
        row = entry(page=5)
        table.add(row)
        table.remove(row)
        assert table.pages() == []


class TestRepoint:
    def test_repoint_swaps_long_pointer_in_place(self):
        table = DataAllocationTable()
        row = entry(address=PROVISIONAL_BASE + 1)
        table.add(row)
        real = row.pointer.with_address(0x3000)
        table.repoint(row, real)
        assert table.entry_for(real) is row
        assert row.pointer == real
        assert table.entry_containing(row.local_address) is row

    def test_repoint_to_existing_pointer_rejected(self):
        table = DataAllocationTable()
        first = entry(address=0x1000)
        second = entry(address=0x2000, local=0x6000)
        table.add(first)
        table.add(second)
        with pytest.raises(SmartRpcError):
            table.repoint(first, second.pointer)

    def test_repoint_foreign_entry_rejected(self):
        table = DataAllocationTable()
        with pytest.raises(SmartRpcError):
            table.repoint(entry(), LongPointer("A", 0x9000, "t"))


class TestPresentation:
    def test_rows_sorted_by_page_then_offset(self):
        table = DataAllocationTable()
        table.add(entry(address=0x1000, local=0x6010, page=6, offset=16))
        table.add(entry(address=0x2000, local=0x5000, page=5, offset=0))
        table.add(entry(address=0x3000, local=0x6000, page=6, offset=0))
        rows = table.rows()
        assert [(r[0], r[1]) for r in rows] == [(5, 0), (6, 0), (6, 16)]

    def test_format_table_mirrors_paper_table1(self):
        table = DataAllocationTable()
        table.add(entry(address=0x1000, local=0x5000, page=5, offset=0))
        table.add(entry(address=0x2000, local=0x5010, page=5, offset=16))
        text = table.format_table()
        assert "page #" in text
        assert "long pointer" in text
        assert text.count("LongPointer") == 2
