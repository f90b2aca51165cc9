"""Tests for VMAs and the address space."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, InvalidAddressError
from repro.os.vma import AddressSpace, Protection, Vma


class TestVma:
    def test_bounds(self):
        vma = Vma(100, 10)
        assert vma.end_vpn == 110
        assert vma.contains(100)
        assert vma.contains(109)
        assert not vma.contains(110)
        assert not vma.contains(99)

    def test_pages_iterates_all(self):
        vma = Vma(5, 3)
        assert list(vma.pages()) == [5, 6, 7]


class TestMmap:
    def test_returns_contiguous_region(self):
        space = AddressSpace()
        vma = space.mmap(100)
        assert vma.npages == 100
        assert space.find(vma.start_vpn) is vma
        assert space.find(vma.end_vpn - 1) is vma

    def test_regions_do_not_overlap(self):
        space = AddressSpace()
        a = space.mmap(10)
        b = space.mmap(10)
        assert a.end_vpn <= b.start_vpn or b.end_vpn <= a.start_vpn

    def test_zero_pages_rejected(self):
        with pytest.raises(AllocationError):
            AddressSpace().mmap(0)

    def test_negative_pages_reports_count(self):
        with pytest.raises(AllocationError, match=r"^mmap of -3 pages: npages must be positive$"):
            AddressSpace().mmap(-3)

    def test_named_region(self):
        vma = AddressSpace().mmap(5, name="edges")
        assert vma.name == "edges"

    @given(st.lists(st.integers(min_value=1, max_value=500), max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_no_overlap_property(self, sizes):
        space = AddressSpace()
        vmas = [space.mmap(size) for size in sizes]
        spans = sorted((v.start_vpn, v.end_vpn) for v in vmas)
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2


class TestBrk:
    def test_heap_grows_contiguously(self):
        space = AddressSpace()
        a = space.brk(10)
        b = space.brk(5)
        assert b.start_vpn == a.end_vpn

    def test_zero_growth_rejected(self):
        with pytest.raises(AllocationError):
            AddressSpace().brk(0)


class TestMunmap:
    def test_whole_region(self):
        space = AddressSpace()
        vma = space.mmap(10)
        removed = space.munmap(vma.start_vpn, 10)
        assert len(removed) == 1
        assert removed[0].npages == 10
        assert space.find(vma.start_vpn) is None

    def test_partial_front(self):
        space = AddressSpace()
        vma = space.mmap(10)
        space.munmap(vma.start_vpn, 4)
        assert space.find(vma.start_vpn) is None
        tail = space.find(vma.start_vpn + 4)
        assert tail is not None and tail.npages == 6

    def test_partial_middle_splits(self):
        space = AddressSpace()
        vma = space.mmap(10)
        space.munmap(vma.start_vpn + 3, 4)
        head = space.find(vma.start_vpn)
        tail = space.find(vma.start_vpn + 7)
        assert head.npages == 3
        assert tail.npages == 3
        assert space.find(vma.start_vpn + 5) is None

    def test_spanning_multiple_vmas(self):
        space = AddressSpace()
        a = space.mmap(5)
        b = space.mmap(5)
        removed = space.munmap(a.start_vpn, b.end_vpn - a.start_vpn)
        assert sum(fragment.npages for fragment in removed) == 10

    def test_zero_pages_rejected(self):
        with pytest.raises(InvalidAddressError):
            AddressSpace().munmap(0, 0)

    def test_unmapped_range_is_noop(self):
        space = AddressSpace()
        assert space.munmap(12345, 10) == []


class TestClone:
    def test_clone_is_independent(self):
        space = AddressSpace()
        vma = space.mmap(10)
        twin = space.clone()
        assert twin.find(vma.start_vpn).npages == 10
        twin.munmap(vma.start_vpn, 10)
        assert space.find(vma.start_vpn) is not None

    def test_clone_preserves_cursors(self):
        space = AddressSpace()
        space.mmap(10)
        twin = space.clone()
        a = space.mmap(5)
        b = twin.mmap(5)
        assert a.start_vpn == b.start_vpn  # same layout decisions


class TestTotals:
    def test_total_pages(self):
        space = AddressSpace()
        space.mmap(10)
        space.mmap(20)
        assert space.total_pages == 30
        assert len(space) == 2
