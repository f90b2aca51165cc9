"""Tests for PTE encoding and the radix page table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageTableError
from repro.invariants import check_page_table
from repro.pagetable.pte import (
    PteFlags,
    make_pte,
    pte_clear_flags,
    pte_flags,
    pte_frame,
    pte_present,
    pte_set_flags,
)
from repro.pagetable.radix import PageTable
from repro.units import PT_LEVELS, PTES_PER_CACHE_BLOCK


class FrameSource:
    """Deterministic frame allocator for standalone page tables."""

    def __init__(self):
        self.next = 100
        self.released = []

    def alloc(self):
        frame = self.next
        self.next += 1
        return frame

    def release(self, frame):
        self.released.append(frame)


@pytest.fixture
def frames():
    return FrameSource()


@pytest.fixture
def table(frames):
    return PageTable(frames.alloc, frames.release)


class TestPteEncoding:
    def test_roundtrip(self):
        pte = make_pte(1234, PteFlags.PRESENT | PteFlags.WRITABLE)
        assert pte_frame(pte) == 1234
        assert pte_flags(pte) == PteFlags.PRESENT | PteFlags.WRITABLE

    def test_present(self):
        assert pte_present(make_pte(1, PteFlags.PRESENT))
        assert not pte_present(make_pte(1, PteFlags.NONE))
        assert not pte_present(0)

    def test_set_and_clear_flags(self):
        pte = make_pte(5, PteFlags.PRESENT)
        pte = pte_set_flags(pte, PteFlags.COW)
        assert pte_flags(pte) & PteFlags.COW
        pte = pte_clear_flags(pte, PteFlags.COW)
        assert not pte_flags(pte) & PteFlags.COW
        assert pte_frame(pte) == 5

    def test_negative_frame_rejected(self):
        with pytest.raises(ValueError):
            make_pte(-1)


class TestMapping:
    def test_map_and_translate(self, table):
        table.map(0x1000, 77)
        assert table.translate(0x1000) == 77
        assert table.is_mapped(0x1000)

    def test_unmapped_returns_none(self, table):
        assert table.translate(0x1000) is None
        assert not table.is_mapped(0x1000)

    def test_double_map_raises(self, table):
        table.map(5, 1)
        with pytest.raises(PageTableError):
            table.map(5, 2)

    def test_unmap_returns_frame(self, table):
        table.map(9, 42)
        assert table.unmap(9) == 42
        assert not table.is_mapped(9)

    def test_unmap_missing_raises(self, table):
        with pytest.raises(PageTableError):
            table.unmap(9)

    def test_update_changes_frame(self, table):
        table.map(9, 42)
        table.update(9, 43, PteFlags.PRESENT)
        assert table.translate(9) == 43

    def test_update_missing_raises(self, table):
        with pytest.raises(PageTableError):
            table.update(9, 1, PteFlags.PRESENT)

    def test_mapped_pages_count(self, table):
        for vpn in range(10):
            table.map(vpn, vpn + 100)
        assert table.mapped_pages == 10
        table.unmap(3)
        assert table.mapped_pages == 9


class TestNodeManagement:
    def test_nodes_created_on_demand(self, table):
        assert table.node_count == 1
        table.map(0, 1)
        assert table.node_count == PT_LEVELS  # root + 3 interior/leaf

    def test_adjacent_pages_share_nodes(self, table):
        table.map(0, 1)
        nodes_before = table.node_count
        table.map(1, 2)
        assert table.node_count == nodes_before

    def test_distant_pages_need_new_nodes(self, table):
        table.map(0, 1)
        nodes_before = table.node_count
        table.map(1 << 27, 2)  # different root slot
        assert table.node_count == nodes_before + (PT_LEVELS - 1)

    def test_nodes_pruned_on_unmap(self, table, frames):
        table.map(0, 1)
        table.unmap(0)
        assert table.node_count == 1
        assert len(frames.released) == PT_LEVELS - 1

    def test_destroy_releases_everything(self, table, frames):
        for vpn in (0, 5, 1 << 20):
            table.map(vpn, vpn + 1)
        table.destroy()
        assert table.mapped_pages == 0
        assert table.node_count == 1


    def test_map_inside_huge_mapping_raises(self, table):
        table.map_huge(0, PageTable.HUGE_PAGES)
        with pytest.raises(PageTableError):
            table.map(3, 7)
        assert table.translate(3) == PageTable.HUGE_PAGES + 3

    def test_unmap_huge_keeps_neighbouring_huge_mapping(self, table):
        huge = PageTable.HUGE_PAGES
        table.map_huge(0, 0)
        table.map_huge(huge, huge)
        table.unmap_huge(0)
        # Both 2MB entries share one level-2 node; it must survive.
        assert table.translate(huge + 3) == huge + 3
        assert table.mapped_pages == huge
        check_page_table(table)


class TestWalkPath:
    def test_full_path_for_mapped_page(self, table):
        table.map(0x12345, 7)
        path = table.walk_path(0x12345)
        assert len(path) == PT_LEVELS
        assert [level for level, _f, _i in path] == [4, 3, 2, 1]

    def test_short_path_for_hole(self, table):
        path = table.walk_path(0x12345)
        assert len(path) == 1  # only the root exists

    def test_path_and_pte_consistency(self, table):
        table.map(0x999, 55)
        path, pte = table.walk_path_and_pte(0x999)
        assert len(path) == PT_LEVELS
        assert pte is not None and (pte >> 12) == 55
        _path, missing = table.walk_path_and_pte(0x99A + 512)
        assert missing is None

    def test_adjacent_pages_same_leaf_frame(self, table):
        # The physical placement property behind the whole paper: PTEs of
        # the 8 pages of one group live in one leaf node, 8 slots apart.
        base = 0x4000
        for i in range(PTES_PER_CACHE_BLOCK):
            table.map(base + i, 100 + i)
        leaf_frames = {table.walk_path(base + i)[-1][1] for i in range(8)}
        assert len(leaf_frames) == 1


class TestIteration:
    def test_iter_mappings_sorted_within_nodes(self, table):
        vpns = [7, 3, 5, 1 << 20, (1 << 20) + 1]
        for vpn in vpns:
            table.map(vpn, vpn + 9)
        seen = dict(table.iter_mappings())
        assert set(seen) == set(vpns)
        assert all((pte >> 12) == vpn + 9 for vpn, pte in seen.items())

    def test_leaf_nodes_enumeration(self, table):
        table.map(0, 1)
        table.map(1 << 20, 2)
        assert len(list(table.leaf_nodes())) == 2


class TestPropertyBased:
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=(1 << 30) - 1),
            st.integers(min_value=0, max_value=(1 << 20) - 1),
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_map_translate_roundtrip(self, mapping):
        frames = FrameSource()
        table = PageTable(frames.alloc, frames.release)
        for vpn, pfn in mapping.items():
            table.map(vpn, pfn)
        for vpn, pfn in mapping.items():
            assert table.translate(vpn) == pfn
        assert table.mapped_pages == len(mapping)
        for vpn in mapping:
            table.unmap(vpn)
        assert table.mapped_pages == 0
        assert table.node_count == 1


def _slow_lookup(table, vpn):
    """Reference lookup: a radix descent, then the huge-entry descent."""
    node, leaf_index = table._leaf_for(vpn)
    if node is not None:
        pte = node.entries.get(leaf_index, 0)
        if pte_present(pte):
            return pte
    huge = table.huge_entry_for(vpn)
    if huge is None:
        return None
    return make_pte(
        pte_frame(huge) + vpn % PageTable.HUGE_PAGES,
        PteFlags.PRESENT | PteFlags.HUGE,
    )


#: Two neighbouring 2MB ranges under one level-2 node plus a distant one
#: under another root slot; a few offsets in each, so steps collide, leaf
#: nodes fill and empty, and huge maps meet both empty and busy ranges.
_BASES = (0, PageTable.HUGE_PAGES, 1 << 27)
_vpns = st.builds(
    lambda base, offset: base + offset,
    st.sampled_from(_BASES),
    st.sampled_from((0, 1, 2, 255, PageTable.HUGE_PAGES - 1)),
)
_frames = st.integers(min_value=0, max_value=(1 << 20) - 1)
_steps = st.one_of(
    st.tuples(st.just("map"), _vpns, _frames),
    # unmap/update pick a vpn seen so far (mapped or not) by position.
    st.tuples(st.just("unmap"), st.integers(min_value=0)),
    st.tuples(
        st.just("update"),
        st.integers(min_value=0),
        _frames,
        st.sampled_from(
            (
                PteFlags.PRESENT,
                PteFlags.PRESENT | PteFlags.COW,
                PteFlags.WRITABLE,
            )
        ),
    ),
    st.tuples(st.just("map_huge"), st.sampled_from(_BASES), _frames),
    st.tuples(st.just("unmap_huge"), st.sampled_from(_BASES)),
    st.tuples(st.just("destroy")),
)


class TestLeafIndexCoherence:
    """The flat leaf index answers every software query exactly as the
    radix tree does, after any sequence of page-table mutations."""

    @given(st.lists(_steps, min_size=10, max_size=50))
    @settings(max_examples=80, deadline=None)
    def test_queries_match_radix_descent(self, steps):
        frames = FrameSource()
        table = PageTable(frames.alloc, frames.release)
        probes = set()
        for step in steps:
            kind = step[0]
            if kind == "map":
                _, vpn, pfn = step
                if _slow_lookup(table, vpn) is None:
                    table.map(vpn, pfn)
                else:  # mapped by a 4KB or a huge entry
                    with pytest.raises(PageTableError):
                        table.map(vpn, pfn)
                probes.add(vpn)
            elif kind in ("unmap", "update"):
                if not probes:
                    continue
                vpn = sorted(probes)[step[1] % len(probes)]
                pte = _slow_lookup(table, vpn)
                if kind == "unmap":
                    mutate = lambda: table.unmap(vpn)  # noqa: E731
                else:
                    mutate = lambda: table.update(vpn, *step[2:])  # noqa: E731
                if pte is not None and not pte & PteFlags.HUGE:
                    mutate()
                else:  # only 4KB leaves can be unmapped or updated
                    with pytest.raises(PageTableError):
                        mutate()
            elif kind == "map_huge":
                _, base, pfn = step
                pfn -= pfn % PageTable.HUGE_PAGES
                try:
                    table.map_huge(base, pfn)
                except PageTableError:
                    pass
                last = base + PageTable.HUGE_PAGES - 1
                probes.update((base, base + 1, last))
            elif kind == "unmap_huge":
                base = step[1]
                try:
                    table.unmap_huge(base)
                except PageTableError:
                    pass
            else:
                table.destroy()
            for vpn in probes:
                expected = _slow_lookup(table, vpn)
                assert table.lookup(vpn) == expected
                assert table.is_mapped(vpn) == (expected is not None)
                assert table.translate(vpn) == (
                    None if expected is None else pte_frame(expected)
                )
            check_page_table(table)
