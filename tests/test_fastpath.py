"""Tests for the engine translation fast path (repro.sim.fastpath).

Two layers of defence:

* unit tests pin the mirror invariant -- the :class:`TranslationCache`
  holds ``vpn`` if and only if ``vpn`` is resident in the L1 TLB, with
  the same frame and the *identical* set dict (the fast path replays the
  LRU refresh through it);
* an end-to-end test runs the same colocated scenario with the fast
  path on and off (``REPRO_NO_FASTPATH=1``) and requires byte-identical
  metrics snapshots. The perf-smoke bench in ``benchmarks/test_speedup.py``
  repeats this gate on the figure6-shaped regime while also asserting
  the speedup itself.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GuestConfig, HostConfig, PlatformConfig, TlbConfig
from repro.metrics.collect import snapshot_simulation
from repro.sim.fastpath import NO_FASTPATH_ENV, TranslationCache
from repro.tlb.tlb import TlbHierarchy
from repro.units import MB
from repro.workloads import StressNg
from repro.workloads.spec import LowPressureSpec


def small_hierarchy():
    """4-entry/2-way L1 over an 8-entry L2: evicts after a handful."""
    return TlbHierarchy(
        TlbConfig("L1D", 4, 2),
        TlbConfig("L2", 8, 4),
        xlate=TranslationCache(),
    )


def assert_dense_views(xc: TranslationCache) -> None:
    """The base-relative numpy views hold exactly the dict's entries."""
    for vpn, (hfn, _ways, writable) in xc.items():
        slot = vpn - xc.base
        assert 0 <= slot < xc.hfn6.shape[0]
        assert xc.hfn6[slot] == hfn << 6
        assert xc.hfn6_w[slot] == ((hfn << 6) if writable else -1)
    # No stale slot survives an invalidate or flush.
    assert np.count_nonzero(xc.hfn6 >= 0) == len(xc)
    assert np.count_nonzero(xc.hfn6_w >= 0) == sum(
        writable for _hfn, _ways, writable in xc.values()
    )


def assert_mirror_invariant(tlb: TlbHierarchy) -> None:
    """The mirror == L1 content, frame-for-frame, same set dicts."""
    resident = {}
    for ways in tlb.l1._sets:
        resident.update(ways)
    assert set(tlb.xlate) == set(resident)
    for vpn, (hfn, ways, writable) in tlb.xlate.items():
        assert hfn == resident[vpn]
        assert ways is tlb.l1._sets[vpn % tlb.l1.num_sets]
        assert writable is True
    assert_dense_views(tlb.xlate)


class TestTranslationCacheMirror:
    def test_insert_mirrors_into_l1_set(self):
        tlb = small_hierarchy()
        tlb.insert(7, 42)
        hfn, ways, writable = tlb.xlate[7]
        assert hfn == 42 and writable
        assert ways is tlb.l1._sets[7 % tlb.l1.num_sets]
        assert_mirror_invariant(tlb)

    def test_l1_eviction_invalidates_victim(self):
        tlb = small_hierarchy()
        sets = tlb.l1.num_sets
        a, b, c = 0, sets, 2 * sets  # all in L1 set 0 (2-way)
        tlb.insert(a, 1)
        tlb.insert(b, 2)
        tlb.insert(c, 3)  # evicts a from L1
        assert a not in tlb.xlate
        assert set(tlb.xlate) >= {b, c}
        assert_mirror_invariant(tlb)

    def test_l2_promotion_reinstalls_mirror(self):
        tlb = small_hierarchy()
        sets = tlb.l1.num_sets
        a, b, c = 0, sets, 2 * sets
        tlb.insert(a, 1)
        tlb.insert(b, 2)
        tlb.insert(c, 3)  # a now lives only in L2
        assert a not in tlb.xlate
        assert tlb.lookup(a) == 1  # L2 hit promotes back into L1
        assert tlb.xlate[a][0] == 1
        assert_mirror_invariant(tlb)

    def test_invalidate_and_flush_reach_mirror(self):
        tlb = small_hierarchy()
        tlb.insert(5, 50)
        tlb.insert(6, 60)
        tlb.invalidate(5)  # shootdown: PTE mutation / COW / reclaim path
        assert 5 not in tlb.xlate
        assert_mirror_invariant(tlb)
        tlb.flush()
        assert not tlb.xlate
        assert_mirror_invariant(tlb)

    def test_no_mirror_when_disabled(self):
        tlb = TlbHierarchy(TlbConfig("L1D", 4, 2), TlbConfig("L2", 8, 4))
        tlb.insert(7, 42)
        tlb.invalidate(7)
        tlb.flush()
        assert tlb.xlate is None

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "lookup", "invalidate", "flush"]),
                # Three sparse bands: the first install sets the base
                # anywhere, so later ones grow the views up, grow them
                # down, or land inside the span.
                st.one_of(
                    st.integers(min_value=0, max_value=30),
                    st.integers(min_value=(1 << 16) - 15, max_value=(1 << 16) + 15),
                    st.integers(min_value=(1 << 20) - 15, max_value=(1 << 20) + 15),
                ),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_mirror_invariant_under_churn(self, ops):
        tlb = small_hierarchy()
        frame = 100
        for op, vpn in ops:
            if op == "insert":
                frame += 1
                tlb.insert(vpn, frame)
            elif op == "lookup":
                tlb.lookup(vpn)
            elif op == "invalidate":
                tlb.invalidate(vpn)
            else:
                tlb.flush()
            assert_mirror_invariant(tlb)


class TestDenseViews:
    def test_views_start_empty_and_first_install_sets_base(self):
        xc = TranslationCache()
        assert xc.hfn6.shape == xc.hfn6_w.shape == (0,)
        xc.install(1 << 20, 9, {})
        assert xc.base == 1 << 20
        assert xc.hfn6.shape[0] == 1
        assert_dense_views(xc)

    def test_grow_up_and_down_keeps_entries(self):
        xc = TranslationCache()
        xc.install(1000, 1, {})
        xc.install(1005, 2, {})  # up: base stays, 8 slots
        assert (xc.base, xc.hfn6.shape[0]) == (1000, 8)
        xc.install(999, 3, {})  # down: base drops by the added slots
        assert (xc.base, xc.hfn6.shape[0]) == (992, 16)
        xc.install(993, 4, {})  # just below the old base: no regrow
        assert (xc.base, xc.hfn6.shape[0]) == (992, 16)
        assert_dense_views(xc)

    def test_read_only_entry_absent_from_writable_view(self):
        xc = TranslationCache()
        xc.install(50, 7, {}, writable=False)
        xc.install(52, 8, {})
        assert xc.hfn6_w[50 - xc.base] == -1
        assert xc.hfn6_w[52 - xc.base] == 8 << 6
        assert_dense_views(xc)
        xc.invalidate_many([50, 52, 60])
        assert not xc
        assert_dense_views(xc)

    def test_views_sized_to_installed_span(self, monkeypatch):
        # User regions start at VPN 1 << 20; absolute indexing would
        # give every core two 2M-slot arrays for 32 L1 entries.
        spans = {}
        install = TranslationCache.install

        def recording_install(self, vpn, *args):
            low, high = spans.get(id(self), (vpn, vpn))
            spans[id(self)] = (min(low, vpn), max(high, vpn))
            install(self, vpn, *args)

        monkeypatch.delenv(NO_FASTPATH_ENV, raising=False)
        monkeypatch.setattr(TranslationCache, "install", recording_install)
        sim = _run_scenario()[1]
        for core in sim.machine.cores:
            xc = core.xlate
            if id(xc) not in spans:
                assert xc.hfn6.shape[0] == 0
                continue
            low, high = spans[id(xc)]
            bound = 2 * (1 << (high - low).bit_length())
            assert xc.hfn6.shape[0] <= bound
            assert xc.hfn6_w.shape[0] == xc.hfn6.shape[0]


def _run_scenario():
    """A small colocated run covering walks, evictions and churn."""
    from repro.sim.engine import Simulation

    sim = Simulation(
        PlatformConfig(
            host=HostConfig(memory_bytes=64 * MB),
            guest=GuestConfig(memory_bytes=32 * MB),
        )
    )
    churn = sim.add_workload(StressNg(seed=1))
    # Footprint larger than the 32-entry L1 DTLB: exercises evictions,
    # L2 promotions and full walks alongside fast-path hits.
    bench = sim.add_workload(
        LowPressureSpec("leela", 0, accesses=4000, footprint=64)
    )
    bench.start_measurement()
    sim.run_until_finished(bench)
    sim.stop(churn)
    result = sim.result_for(bench)
    return snapshot_simulation("bench", sim, result).to_dict(), sim


class TestEndToEndIdentity:
    def test_fastpath_snapshot_identical_to_reference(self, monkeypatch):
        monkeypatch.delenv(NO_FASTPATH_ENV, raising=False)
        fast = _run_scenario()[0]
        monkeypatch.setenv(NO_FASTPATH_ENV, "1")
        reference = _run_scenario()[0]
        assert json.dumps(fast, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )
