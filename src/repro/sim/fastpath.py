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
    mutation site must reach (the ``fastpath-invalidation`` lint rule
    enforces this statically for kernel code).

    Alongside the dict, two dense numpy views of the same mirror let
    the batched engine probe a whole address segment at once:

    ``hfn6``
        ``vpn -> hfn << 6`` (the cache-block prefix of the host frame),
        or ``-1`` where no entry exists. One fancy-index gather turns a
        segment of virtual page numbers into cache-block numbers.
    ``hfn6_w``
        Same, but ``-1`` also where the entry is read-only, so write
        segments can use the identical gather without a permission
        loop (a read-only entry must fall back to the COW slow path).

    Both arrays are maintained at exactly the four mutation hooks below
    and grow by doubling on install; indices past the current size are
    simply absent (the engine bounds-checks before gathering).
    """

    __slots__ = ("hfn6", "hfn6_w")

    def __init__(self) -> None:
        super().__init__()
        self.hfn6 = np.full(1, -1, dtype=np.int64)
        self.hfn6_w = np.full(1, -1, dtype=np.int64)

    def install(self, vpn: int, hfn: int, ways: Dict[int, int], writable: bool = True) -> None:
        """Mirror ``vpn``'s L1 residency; called on L1 insert/promotion."""
        # The entry tuple is the cache's payload -- the one allocation
        # the mirror design fundamentally needs (install runs on L1
        # *misses*, not on the per-access hit probe).
        self[vpn] = (hfn, ways, writable)  # simlint: disable=hotpath-alloc
        hfn6 = self.hfn6
        if vpn >= hfn6.shape[0]:
            size = hfn6.shape[0]
            while size <= vpn:
                size *= 2
            grown = np.full(size, -1, dtype=np.int64)  # simlint: disable=hotpath-alloc
            grown[: hfn6.shape[0]] = hfn6
            self.hfn6 = hfn6 = grown
            grown = np.full(size, -1, dtype=np.int64)  # simlint: disable=hotpath-alloc
            grown[: self.hfn6_w.shape[0]] = self.hfn6_w
            self.hfn6_w = grown
        hfn6[vpn] = hfn << 6
        self.hfn6_w[vpn] = (hfn << 6) if writable else -1

    def invalidate(self, vpn: int) -> None:
        """Drop one page (L1 eviction, TLB shootdown, PTE mutation)."""
        if self.pop(vpn, None) is not None:
            self.hfn6[vpn] = -1
            self.hfn6_w[vpn] = -1

    def invalidate_many(self, vpns: Iterable[int]) -> None:
        """Drop a batch of pages (bulk TLB shootdown, e.g. a THP split).

        One mirror entry point per shootdown *range* instead of one
        call per page; removals are order-independent pure deletes, so
        the result is identical to per-page :meth:`invalidate` calls.
        """
        pop = self.pop
        hfn6 = self.hfn6
        hfn6_w = self.hfn6_w
        for vpn in vpns:
            if pop(vpn, None) is not None:
                hfn6[vpn] = -1
                hfn6_w[vpn] = -1

    def flush(self) -> None:
        """Drop everything (full TLB flush / context switch)."""
        self.clear()
        self.hfn6.fill(-1)
        self.hfn6_w.fill(-1)
