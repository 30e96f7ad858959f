"""Tests for paged address spaces and protection."""

import pytest

from repro.memory.address_space import REGION_BASE, AddressSpace
from repro.memory.faults import AccessViolation, FaultKind, SegmentationError
from repro.memory.page import Protection


@pytest.fixture
def space():
    return AddressSpace("T")


class TestMapping:
    def test_map_region_returns_base(self, space):
        base = space.map_region(2)
        assert base >= REGION_BASE
        assert base % space.page_size == 0
        assert space.is_mapped(base)
        assert space.is_mapped(base + 2 * space.page_size - 1)

    def test_regions_do_not_overlap(self, space):
        first = space.map_region(1)
        second = space.map_region(1)
        assert second >= first + space.page_size

    def test_page_zero_never_mapped(self, space):
        space.map_region(4)
        assert not space.is_mapped(0)  # NULL stays invalid

    def test_bad_region_size_rejected(self, space):
        with pytest.raises(ValueError):
            space.map_region(0)

    def test_unmap_page(self, space):
        base = space.map_region(1)
        number = space.page_number(base)
        space.unmap_page(number)
        assert not space.is_mapped(base)

    def test_unmap_unmapped_page_raises(self, space):
        with pytest.raises(SegmentationError):
            space.unmap_page(999)

    def test_unmap_pages_is_one_generation_bump(self, space):
        base = space.map_region(5)
        first = space.page_number(base)
        before = space.generation
        space.unmap_pages(range(first + 1, first + 4))
        assert space.generation == before + 1
        assert space.mapped_pages == [first, first + 4]

    def test_unmap_pages_with_an_unmapped_page_raises(self, space):
        base = space.map_region(2)
        first = space.page_number(base)
        before = space.generation
        with pytest.raises(SegmentationError):
            space.unmap_pages([first, 999, first + 1])
        # What went before the bad number is gone, and seen to be gone.
        assert space.mapped_pages == [first + 1]
        assert space.generation > before

    def test_unmapped_tail_numbers_are_handed_out_again(self, space):
        floor = space.high_water_page
        keep = space.page_number(space.map_region(1))
        tail = space.page_number(space.map_region(3))
        space.unmap_pages(range(tail, tail + 3))
        assert space.high_water_page == tail
        assert space.page_number(space.map_region(1)) == tail
        space.unmap_pages([keep, tail])
        assert space.high_water_page == floor

    def test_a_hole_below_a_mapped_page_is_not_reused(self, space):
        hole = space.page_number(space.map_region(1))
        top = space.page_number(space.map_region(1))
        space.unmap_page(hole)
        assert space.high_water_page == top + 1
        assert space.page_number(space.map_region(1)) == top + 1

    def test_reused_number_is_a_fresh_zeroed_page(self, space):
        base = space.map_region(1)
        space.write_raw(base, b"stale")
        space.unmap_page(space.page_number(base))
        again = space.map_region(1, Protection.READ)
        assert again == base
        assert space.read_raw(base, 5) == bytes(5)
        assert space.protection_of(space.page_number(base)) is Protection.READ

    def test_bad_page_size_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace("x", page_size=100)  # not a multiple of 8
        with pytest.raises(ValueError):
            AddressSpace("x", page_size=0)


class TestCheckedAccess:
    def test_read_write_round_trip(self, space):
        base = space.map_region(1)
        space.write(base + 8, b"hello")
        assert space.read(base + 8, 5) == b"hello"

    def test_fresh_pages_are_zeroed(self, space):
        base = space.map_region(1)
        assert space.read(base, 16) == b"\x00" * 16

    def test_unmapped_read_is_segfault(self, space):
        with pytest.raises(SegmentationError):
            space.read(REGION_BASE, 4)

    def test_protected_read_raises_access_violation(self, space):
        base = space.map_region(1, Protection.NONE)
        with pytest.raises(AccessViolation) as info:
            space.read(base + 4, 4)
        assert info.value.kind is FaultKind.READ
        assert info.value.page_number == space.page_number(base)

    def test_read_only_page_allows_read_blocks_write(self, space):
        base = space.map_region(1, Protection.READ)
        space.read(base, 4)
        with pytest.raises(AccessViolation) as info:
            space.write(base, b"1234")
        assert info.value.kind is FaultKind.WRITE

    def test_cross_page_access_checks_both_pages(self, space):
        base = space.map_region(2)
        boundary = base + space.page_size - 2
        space.write(boundary, b"abcd")
        assert space.read(boundary, 4) == b"abcd"
        space.protect(space.page_number(base) + 1, Protection.NONE)
        with pytest.raises(AccessViolation):
            space.read(boundary, 4)

    def test_fault_address_points_into_protected_page(self, space):
        base = space.map_region(2)
        second = space.page_number(base) + 1
        space.protect(second, Protection.NONE)
        boundary = base + space.page_size - 2
        with pytest.raises(AccessViolation) as info:
            space.read(boundary, 4)
        assert info.value.address == second * space.page_size

    def test_negative_size_rejected(self, space):
        base = space.map_region(1)
        with pytest.raises(ValueError):
            space.read(base, -1)


class TestRawAccess:
    def test_raw_ignores_protection(self, space):
        base = space.map_region(1, Protection.NONE)
        space.write_raw(base, b"secret")
        assert space.read_raw(base, 6) == b"secret"

    def test_raw_cross_page(self, space):
        base = space.map_region(2, Protection.NONE)
        data = bytes(range(100))
        space.write_raw(base + space.page_size - 50, data)
        assert space.read_raw(base + space.page_size - 50, 100) == data

    def test_raw_unmapped_still_segfaults(self, space):
        with pytest.raises(SegmentationError):
            space.read_raw(REGION_BASE, 1)


class TestProtection:
    def test_protect_changes_protection(self, space):
        base = space.map_region(1)
        number = space.page_number(base)
        assert space.protection_of(number) is Protection.READ_WRITE
        space.protect(number, Protection.NONE)
        assert space.protection_of(number) is Protection.NONE

    def test_protection_enum_semantics(self):
        assert not Protection.NONE.readable
        assert not Protection.NONE.writable
        assert Protection.READ.readable
        assert not Protection.READ.writable
        assert Protection.READ_WRITE.readable
        assert Protection.READ_WRITE.writable

    def test_mapped_pages_sorted(self, space):
        space.map_region(3)
        pages = space.mapped_pages
        assert pages == sorted(pages)
        assert len(pages) == 3


class TestGenerationAndPageCache:
    """The invalidation contract the accessor's tokens rely on."""

    def test_map_bumps_generation(self, space):
        before = space.generation
        space.map_region(1)
        assert space.generation > before

    def test_protect_bumps_generation(self, space):
        base = space.map_region(1)
        before = space.generation
        space.protect(space.page_number(base), Protection.READ)
        assert space.generation > before

    def test_unmap_bumps_generation(self, space):
        base = space.map_region(1)
        before = space.generation
        space.unmap_page(space.page_number(base))
        assert space.generation > before

    def test_reads_do_not_bump_generation(self, space):
        base = space.map_region(1)
        before = space.generation
        space.read(base, 4)
        space.write(base, b"x")
        space.read_raw(base, 4)
        assert space.generation == before

    def test_mapped_pages_cache_tracks_map_and_unmap(self, space):
        base = space.map_region(2)
        first = space.page_number(base)
        assert space.mapped_pages == [first, first + 1]
        assert space.mapped_pages == [first, first + 1]  # cached hit
        space.unmap_page(first)
        assert space.mapped_pages == [first + 1]
        space.map_region(1)
        assert len(space.mapped_pages) == 2

    def test_mapped_pages_returns_fresh_list(self, space):
        space.map_region(1)
        pages = space.mapped_pages
        pages.append(-1)  # caller mutation must not poison the cache
        assert -1 not in space.mapped_pages

    def test_page_if_mapped(self, space):
        base = space.map_region(1)
        number = space.page_number(base)
        assert space.page_if_mapped(number) is not None
        assert space.page_if_mapped(number + 7) is None
