"""The software translation cache behind the batched engine core.

Every :class:`~repro.workloads.base.AccessOp` of every experiment funnels
through the same interpreted chain -- region lookup, two-level TLB probe,
(on a miss) the nested 2D walk, then the data access through the cache
hierarchy. For the common case -- a TLB hit followed by an L1 data hit --
that chain is almost entirely Python call overhead: the *modelled* state
change is one LRU refresh and a handful of counter increments.

:class:`TranslationCache` collapses that case to a single dict probe
(and, through its dense numpy views, a whole address segment to one
gather -- see :meth:`repro.sim.engine.WorkloadRun._step_batched`). It
is a per-core dict keyed by guest virtual page number (one core runs one
pinned process, so the ``(pid, vpn)`` key of the design collapses to
``vpn`` per core) holding the fully-resolved ``(hfn, l1_ways, writable)``
of translations currently resident in the L1 TLB:

``hfn``
    The final host physical frame the hardware TLB caches (the complete
    nested translation, as in §2.5).
``l1_ways``
    The exact L1 TLB set dict holding ``vpn``, so the batched core can
    replay the LRU refresh the modelled TLB would perform -- without
    recomputing the set index or re-entering :mod:`repro.tlb.tlb`.
``writable``
    The cached permission: hardware TLBs cache the final translation
    *after* permission checks, so entries installed from a completed
    walk or TLB hit are fully writable. Write accesses replay through
    the interpreted path whenever this bit is clear, so a future
    read-only install can never skip a COW break.

Correctness contract (what keeps counters byte-identical)
---------------------------------------------------------
The cache is a strict mirror of the modelled L1 TLB: an entry exists for
``vpn`` if and only if ``vpn`` is resident in the L1 TLB with the same
frame. :class:`~repro.tlb.tlb.TlbHierarchy` maintains the mirror at every
L1 mutation site -- insert, hit-promotion from L2, eviction of the LRU
victim, single-page invalidate (TLB shootdown, which is how PTE mutations
in :mod:`repro.pagetable.radix`, COW breaks, swap/reclaim and the
sanitizer-visible unmap paths reach the machine model), and full flush.
Because entries are only ever *copies* of live L1 state, a mirror hit in
the batched core performs exactly the state transitions the interpreted
path would: L1 LRU refresh, ``l1.hits`` increment, and the unchanged
cache-model charge for the data access. Nothing else in the model can
observe the difference, which is what the byte-identical snapshot gate
in ``benchmarks/test_speedup.py`` pins.

The engine has two modes. By default the batched core resolves chunk
segments against this mirror. ``REPRO_NO_FASTPATH=1`` selects the
reference engine instead: the fully-interpreted chain for every access,
fed by the workload's per-op generator. The translation cache is not
built at all in that mode, so the TLB carries zero maintenance
overhead.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Tuple

import numpy as np

#: Environment variable disabling the engine fast path when set to a
#: non-empty value ("0" counts as set: any value disables).
NO_FASTPATH_ENV = "REPRO_NO_FASTPATH"

#: A translation-cache entry: (host frame, L1 TLB set dict, writable).
Entry = Tuple[int, Dict[int, int], bool]


def fastpath_enabled() -> bool:
    """True unless ``REPRO_NO_FASTPATH`` is set in the environment.

    Read at :class:`~repro.sim.machine.CoreContext` construction (not
    import) so tests and the speedup bench can flip modes per
    simulation.
    """
    return not os.environ.get(NO_FASTPATH_ENV)


class TranslationCache(dict):
    """Per-core ``vpn -> (hfn, l1_ways, writable)`` mirror of the L1 TLB.

    A plain ``dict`` subclass so the hot probe is a C-level ``get``; the
    named methods below are the *invalidation hooks* every PTE/TLB
    mutation site must reach (the ``mirror-coherence`` lint rule
    enforces this statically over the whole call graph).

    Alongside the dict, two dense numpy views of the same mirror let
    the batched engine probe a whole address segment at once. Both are
    indexed by ``vpn - base``, so they span only the VPNs this core has
    installed rather than the whole guest address space:

    ``hfn6``
        ``hfn6[vpn - base] = hfn << 6`` (the cache-block prefix of the
        host frame), or ``-1`` where no entry exists. One fancy-index
        gather turns a segment of virtual page numbers into cache-block
        numbers.
    ``hfn6_w``
        Same, but ``-1`` also where the entry is read-only, so write
        segments can use the identical gather without a permission
        loop (a read-only entry must fall back to the COW slow path).

    Both arrays are maintained at exactly the four mutation hooks below.
    They start empty; the first install sets ``base`` to its VPN, and an
    install outside ``[base, base + len)`` doubles them in the direction
    it needs (growing downward moves ``base`` down, leaving slack below
    for the next install). VPNs outside the span are simply absent, and
    ``base`` can move on any install, so the engine re-reads it and
    bounds-checks both ends before gathering.
    """

    __slots__ = ("base", "hfn6", "hfn6_w")

    def __init__(self) -> None:
        super().__init__()
        self.base = 0
        self.hfn6 = np.empty(0, dtype=np.int64)
        self.hfn6_w = np.empty(0, dtype=np.int64)

    def install(self, vpn: int, hfn: int, ways: Dict[int, int], writable: bool = True) -> None:
        """Mirror ``vpn``'s L1 residency; called on L1 insert/promotion."""
        # The entry tuple is the cache's payload -- the one allocation
        # the mirror design fundamentally needs (install runs on L1
        # *misses*, not on the per-access hit probe).
        self[vpn] = (hfn, ways, writable)  # simlint: disable=hotpath-alloc
        slot = vpn - self.base
        if not 0 <= slot < self.hfn6.shape[0]:
            slot = self._grow(vpn)
        self.hfn6[slot] = hfn << 6
        self.hfn6_w[slot] = (hfn << 6) if writable else -1

    def _grow(self, vpn: int) -> int:
        """Double both views until they cover ``vpn``; returns its slot.

        Existing slots keep their VPNs: an upward grow appends, a
        downward grow prepends and lowers ``base`` by the added slots.
        """
        held = self.hfn6.shape[0]
        if not held:
            self.base = vpn
        slots = held or 1
        shift = 0
        if vpn < self.base:
            while self.base + held - slots > vpn:
                slots *= 2
            shift = slots - held
            self.base -= shift
        else:
            while self.base + slots <= vpn:
                slots *= 2
        grown = np.full(slots, -1, dtype=np.int64)  # simlint: disable=hotpath-alloc
        grown[shift : shift + held] = self.hfn6
        self.hfn6 = grown
        grown = np.full(slots, -1, dtype=np.int64)  # simlint: disable=hotpath-alloc
        grown[shift : shift + held] = self.hfn6_w
        self.hfn6_w = grown
        return vpn - self.base

    def invalidate(self, vpn: int) -> None:
        """Drop one page (L1 eviction, TLB shootdown, PTE mutation)."""
        if self.pop(vpn, None) is not None:
            slot = vpn - self.base
            self.hfn6[slot] = -1
            self.hfn6_w[slot] = -1

    def invalidate_many(self, vpns: Iterable[int]) -> None:
        """Drop a batch of pages (bulk TLB shootdown, e.g. a THP split).

        One mirror entry point per shootdown *range* instead of one
        call per page; removals are order-independent pure deletes, so
        the result is identical to per-page :meth:`invalidate` calls.
        """
        pop = self.pop
        base = self.base
        hfn6 = self.hfn6
        hfn6_w = self.hfn6_w
        for vpn in vpns:
            if pop(vpn, None) is not None:
                hfn6[vpn - base] = -1
                hfn6_w[vpn - base] = -1

    def flush(self) -> None:
        """Drop everything (full TLB flush / context switch)."""
        self.clear()
        self.hfn6.fill(-1)
        self.hfn6_w.fill(-1)
