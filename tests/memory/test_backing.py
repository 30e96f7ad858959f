"""Lazily backed pages: a buffer holds only the bytes written so far.

A page mapped ``NONE`` (a protected page area) starts with an empty
buffer; both access planes read the unbacked rest as zeros, and a write
past it grows the buffer by rebinding it and bumping the generation, so
no page access token can keep serving the old buffer.
"""

import struct

import pytest

from repro.memory.accessor import Mem
from repro.memory.address_space import AddressSpace
from repro.memory.faults import SegmentationError
from repro.memory.page import Protection

WORD = struct.Struct(">I")


@pytest.fixture
def space():
    return AddressSpace("T")


def backed(space, address):
    """How many bytes of the page holding ``address`` are backed."""
    return len(space.page(space.page_number(address)).data)


class TestZeroBacked:
    def test_protected_page_maps_empty_and_other_pages_full(self, space):
        assert backed(space, space.map_region(1, Protection.NONE)) == 0
        assert backed(space, space.map_region(1)) == space.page_size
        assert (
            backed(space, space.map_region(1, Protection.READ))
            == space.page_size
        )

    def test_read_raw_and_unpack_raw_read_zeros(self, space):
        base = space.map_region(1, Protection.NONE)
        assert space.read_raw(base + 40, 8) == bytes(8)
        assert space.unpack_raw(WORD, base + 100) == (0,)
        space.write_raw(base, b"ab")
        # Straddling the backed bytes: the written ones, then zeros.
        assert space.read_raw(base, 6) == b"ab" + bytes(4)
        assert space.unpack_raw(WORD, base) == (0x61620000,)
        assert backed(space, base) == 2  # reading never grows

    def test_cross_page_read_reads_zeros(self, space):
        base = space.map_region(2, Protection.NONE)
        boundary = base + space.page_size - 3
        assert space.read_raw(boundary, 6) == bytes(6)
        space.write_raw(boundary, b"xyz")
        assert space.read_raw(boundary, 6) == b"xyz" + bytes(3)
        assert backed(space, boundary + 3) == 0

    def test_mem_load_reads_zeros_past_the_backed_bytes(self, space):
        base = space.map_region(1, Protection.NONE)
        space.write_raw(base, b"hi")
        space.protect(space.page_number(base), Protection.READ)
        mem = Mem(space)
        assert mem.load(base, 2) == b"hi"
        assert mem.load(base + 16, 4) == bytes(4)
        assert mem.load(base, 4) == b"hi" + bytes(2)
        assert backed(space, base) == 2


class TestGrowth:
    def test_write_raw_past_the_mark_grows_and_bumps(self, space):
        base = space.map_region(1, Protection.NONE)
        before = space.generation
        space.write_raw(base + 100, b"z")
        assert backed(space, base) == 101
        assert space.generation == before + 1
        assert space.read_raw(base + 99, 2) == b"\x00z"

    def test_pack_raw_past_the_mark_grows_and_bumps(self, space):
        base = space.map_region(1, Protection.NONE)
        before = space.generation
        space.pack_raw(WORD, base + 200, (7,))
        assert backed(space, base) == 204
        assert space.generation == before + 1
        assert space.unpack_raw(WORD, base + 200) == (7,)

    def test_write_within_the_mark_neither_grows_nor_bumps(self, space):
        base = space.map_region(1, Protection.NONE)
        space.write_raw(base, bytes(16))
        before = space.generation
        space.write_raw(base + 4, b"abcd")
        space.pack_raw(WORD, base + 8, (1,))
        assert backed(space, base) == 16
        assert space.generation == before

    def test_cross_page_write_grows_both_pages(self, space):
        base = space.map_region(2, Protection.NONE)
        boundary = base + space.page_size - 2
        space.write_raw(boundary, b"abcd")
        assert backed(space, base) == space.page_size
        assert backed(space, boundary + 2) == 2
        assert space.read_raw(boundary, 4) == b"abcd"

    def test_token_taken_before_growth_never_serves_the_old_buffer(
        self, space
    ):
        base = space.map_region(1, Protection.NONE)
        space.write_raw(base, b"abcd")
        space.protect(space.page_number(base), Protection.READ_WRITE)
        mem = Mem(space)
        assert mem.load(base, 4) == b"abcd"  # token over the 4-byte buffer
        space.write_raw(base + 8, b"xy")  # rebinds the buffer
        space.write_raw(base, b"WXYZ")  # lands in the new buffer only
        assert mem.load(base, 4) == b"WXYZ"
        mem.store(base, b"q")
        assert space.read_raw(base, 4) == b"qXYZ"

    def test_mem_store_past_the_mark_grows_the_buffer(self, space):
        base = space.map_region(1, Protection.NONE)
        space.protect(space.page_number(base), Protection.READ_WRITE)
        mem = Mem(space)
        mem.store(base + 8, b"tail")
        assert backed(space, base) == 12
        assert mem.load(base + 8, 4) == b"tail"
        assert mem.load(base, 4) == bytes(4)


class TestProtectPages:
    def test_one_generation_bump_for_all_pages(self, space):
        first = space.page_number(space.map_region(3))
        before = space.generation
        space.protect_pages(range(first, first + 3), Protection.READ)
        assert space.generation == before + 1
        assert all(
            space.protection_of(number) is Protection.READ
            for number in range(first, first + 3)
        )

    def test_unmapped_page_raises_and_still_bumps(self, space):
        first = space.page_number(space.map_region(2))
        before = space.generation
        with pytest.raises(SegmentationError):
            space.protect_pages([first, 999, first + 1], Protection.NONE)
        # What went before the bad number changed, and is seen to.
        assert space.protection_of(first) is Protection.NONE
        assert space.protection_of(first + 1) is Protection.READ_WRITE
        assert space.generation == before + 1
