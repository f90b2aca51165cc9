"""The simulation driver: executes workload op streams on the modelled
platform.

One :class:`Simulation` owns the full stack for one experiment run: host
kernel, one VM, guest kernel (default or PTEMagnet), the machine (cores +
caches), and a set of :class:`WorkloadRun` instances colocated inside the
VM. Every :class:`~repro.workloads.base.AccessOp` goes through the real
translation path: TLB lookup, then (on miss) a nested 2D page walk, then
(on a guest-PT hole) the guest kernel's page-fault path -- default or
PTEMagnet -- then the data access through the shared cache hierarchy.
Execution time is the sum of modelled cycles, the quantity the paper's
Figures 6/7 compare between kernels.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from ..cache.hierarchy import AccessOutcome
from ..config import PlatformConfig
from ..errors import SimulationError
from ..metrics.counters import PerfCounters
from ..metrics.fragmentation import (
    fragmented_group_fraction,
    host_pt_fragmentation,
)
from ..obs.profile import PROFILER
from ..obs.sampler import PeriodicSampler, standard_sampler
from ..obs.trace import TRACER, tracepoint
from ..os.kernel import GuestKernel
from ..os.process import Process
from ..pagetable.pte import PteFlags, pte_flags
from ..units import BLOCKS_PER_PAGE, CACHE_BLOCK_SHIFT, PAGE_SHIFT
from ..virt.hypervisor import HostKernel
from ..virt.nested import NestedWalker
from ..workloads.base import (
    AccessOp,
    BrkOp,
    FreeOp,
    MemoryOp,
    MmapOp,
    OpChunk,
    PhaseOp,
    Workload,
    WorkloadPhase,
)
from .machine import CoreContext, Machine
from .results import RunResult, SimulationResult
from .scheduler import RoundRobinScheduler

_tp_sched_turn = tracepoint("sched.turn")

#: Hoisted for the batched core's slice-exit flush of L1-hit accesses.
_OUTCOME_L1 = AccessOutcome.L1

#: Left-shift turning a host frame number into its first cache-block
#: index: chunk blocks are canonical (0..63), so the batch loop computes
#: ``(hfn << PAGE_SHIFT | block << CACHE_BLOCK_SHIFT) >> CACHE_BLOCK_SHIFT``
#: as one shift-or.
_BLOCK_SHIFT = PAGE_SHIFT - CACHE_BLOCK_SHIFT

#: Minimum single-region segment length worth the vectorized all-hit
#: probe: below this the numpy array construction overhead exceeds the
#: per-op savings and the scalar loop wins.
_VEC_MIN = 32


class _ChunkOps:
    """Per-op iterator view over a batched run's chunk stream.

    Whenever the translation mirror exists (every run except
    ``REPRO_NO_FASTPATH`` ones, which read ``workload.ops()`` directly),
    profiled and fast-forwarded slices dispatch to the interpreted loop,
    and that loop consumes the batched stream through this adapter. It
    shares cursor state (``run._chunk`` / ``run._cursor``) with
    ``_step_batched`` and re-reads it on every ``__next__``, so flipping
    ``fast_forward`` or enabling the profiler mid-run resumes the stream
    exactly where the batch loop stopped -- no op is ever duplicated or
    skipped across mode switches.
    """

    __slots__ = ("_run",)

    def __init__(self, run: "WorkloadRun") -> None:
        self._run = run

    def __iter__(self) -> "_ChunkOps":
        return self

    def __next__(self) -> MemoryOp:
        run = self._run
        while True:
            chunk = run._chunk
            if chunk is None:
                chunk = next(run._chunks)  # StopIteration ends the stream
                run._chunk = chunk
                run._cursor = 0
            cursor = run._cursor
            pages = chunk.pages
            if cursor < len(pages):
                run._cursor = cursor + 1
                ridx = chunk.region_idx
                writes = chunk.writes
                return AccessOp(
                    chunk.regions[
                        ridx if ridx.__class__ is int else ridx[cursor]
                    ],
                    pages[cursor],
                    chunk.blocks[cursor],
                    writes if writes.__class__ is bool else writes[cursor],
                )
            run._chunk = None
            if chunk.tail is not None:
                return chunk.tail


class WorkloadRun:
    """One workload executing inside the simulated VM on its own core."""

    def __init__(
        self,
        workload: Workload,
        process: Process,
        core: CoreContext,
        walker: NestedWalker,
        kernel: GuestKernel,
        weight: int = 1,
    ) -> None:
        self.workload = workload
        self.process = process
        self.core = core
        self.walker = walker
        self.kernel = kernel
        self.weight = weight
        self.counters = PerfCounters()
        self.measuring = False
        # Hot-path bindings for the batched engine core (see
        # repro.sim.fastpath): the per-core mirror of L1 TLB content,
        # the L1 TLB itself (its hit counter must advance exactly as the
        # interpreted path would), and the fixed issue cost.
        self._xlate = core.xlate
        self._tlb_l1 = core.tlb.l1
        self._base_cycles = core.config.base_cycles_per_access
        # Interpreted data accesses (residue replays, profiled and
        # fast-forwarded slices) go through the inlined L1-hit entry when
        # the mirror exists, and through the original layered entry under
        # REPRO_NO_FASTPATH -- both reach identical state and counters.
        # The L1 set array/geometry are bound here for the batched core's
        # inlined L1-hit case; SetAssociativeCache mutates its sets in
        # place and never rebinds them, so the aliases stay valid for the
        # run.
        self._hier = core.hierarchy
        if core.xlate is not None:
            self._data_access = core.hierarchy.access_data
        else:
            self._data_access = core.hierarchy.access
        l1 = core.hierarchy.l1
        self._dl1 = l1
        self._dl1_sets = l1._sets
        self._dl1_nsets = l1.num_sets
        #: When True, accesses skip the TLB/walk/cache models and only
        #: exercise the page-fault path. Used to fast-forward co-runner
        #: pre-churn, whose only observable effect is buddy-allocator
        #: state; faults still arrive in exactly the same order.
        self.fast_forward = False
        self.current_phase: Optional[WorkloadPhase] = None
        self.ops_executed = 0
        self._regions: Dict[str, object] = {}
        # Region memo of the batched core: the VMA geometry of the
        # most recently accessed region, compared by region-name object
        # identity (streams intern their region literals). Instance-level
        # so it survives slice boundaries and benign non-access ops
        # (PhaseOp cannot change VMAs); _execute drops it on any op that
        # can -- mmap, brk, free.
        self._memo_region: Optional[str] = None
        self._memo_start = 0
        self._memo_npages = 0
        self._chunk: Optional[OpChunk] = None
        self._cursor = 0
        if core.xlate is not None:
            # Batched engine core: the workload feeds packed chunks
            # which _step_batched resolves against the mirror in bulk.
            # The interpreted paths view the same stream through
            # _ChunkOps, sharing the chunk cursor, so profiled or
            # fast-forwarded slices never lose stream position.
            self._chunks: Optional[Iterator[OpChunk]] = (
                workload.ops_batched()
            )
            self._iterator: Iterator[MemoryOp] = _ChunkOps(self)
        else:
            # Under REPRO_NO_FASTPATH the reference engine consumes the
            # workload's own per-op generator, verbatim.
            self._chunks = None
            self._iterator = workload.ops()
        #: Plain attribute rather than a property: the scheduler and the
        #: turn loops read it several times per turn, and a slice is only
        #: a couple of ops. Flipped by step() on stream exhaustion and by
        #: stop().
        self.finished = False

    # ------------------------------------------------------------------ #
    # Scheduling interface
    # ------------------------------------------------------------------ #

    def stop(self) -> None:
        """Stop executing this run (the experiment killed the co-runner)."""
        self.finished = True

    def step(self, max_ops: int) -> int:
        """Execute up to ``max_ops`` operations; returns how many ran.

        Yields the remainder of the slice at a phase boundary so phase
        transitions are precise -- experiment harnesses change measurement
        and fidelity settings exactly at those points.
        """
        if self.finished:
            return 0
        executed = 0
        iterator = self._iterator
        xc = self._xlate
        if xc is None or PROFILER.enabled or self.fast_forward:
            # Interpreted path, kept as the seed wrote it: under
            # REPRO_NO_FASTPATH this loop (with _execute's isinstance
            # dispatch) IS the reference engine the batched core is
            # differentially validated against. Profiled runs take it so
            # attribution sees the full chain; fast-forwarded pre-churn
            # takes it because _access short-circuits there anyway.
            while executed < max_ops and not self.finished:
                try:
                    op = next(iterator)
                except StopIteration:
                    self.finished = True
                    break
                self._execute(op)
                executed += 1
                if isinstance(op, PhaseOp):
                    break
            self.ops_executed += executed
            return executed
        return self._step_batched(max_ops)

    def _step_batched(self, max_ops: int) -> int:
        """Batched engine core: resolve whole chunk segments at once.

        Consumes the workload's packed :class:`OpChunk` stream instead
        of per-op objects. Each slice takes chunk *segments* -- a chunk
        is split at slice boundaries via the shared cursor, so slice op
        accounting and interleaving stay exactly op-precise -- and runs
        one of two tight loops over the parallel arrays with zero
        per-op function calls: the single-region/uniform-write loop
        (the common case every native emitter compacts towards) or the
        generic indexed loop. A full fast hit performs exactly the
        interpreted chain's state transitions (L1 TLB LRU refresh,
        data-L1 LRU refresh, the constant latency charge); everything
        else is *miss residue* -- mirror miss, unmapped region,
        write-to-RO, out-of-bounds page, data-L1 miss -- and replays
        through the interpreted slow path *at its exact stream
        position*, because residue ops change LRU state that later fast
        classifications depend on. Counter increments for fast hits are
        flushed once per slice and the tracer clock is advanced in bulk
        immediately before any observation point (the deferral
        contract spelled out at the slice-exit flush), so snapshots stay
        byte-identical to the reference engine.
        """
        executed = 0
        xc = self._xlate
        xget = xc.get
        access = self._access
        regions_get = self._regions.get
        tlb_l1 = self._tlb_l1
        dl1 = self._dl1
        dl1_sets = self._dl1_sets
        dl1_nsets = self._dl1_nsets
        # The flat membership mirror is mutated in place (never rebound)
        # by SetAssociativeCache, so the alias survives residue replays.
        dl1_members = dl1.members
        hier = self._hier
        base_cycles = self._base_cycles
        l1_latency = hier._l1_latency
        fast_cycles = base_cycles + l1_latency
        measuring = self.measuring
        mcounters = self.counters
        tracer_active = TRACER.active
        chunks = self._chunks
        chunk = self._chunk
        cursor = self._cursor
        memo_region = self._memo_region
        memo_start = self._memo_start
        memo_npages = self._memo_npages
        full_hits = 0  # fast ops that hit the mirror and the data L1
        slow_tlb_hits = 0  # mirror hits that missed the data L1
        flushed_hits = 0  # full hits whose cycles reached the tracer
        last_fast = False  # did the last access resolve fully fast?
        while executed < max_ops:
            if chunk is None:
                try:
                    chunk = next(chunks)
                except StopIteration:
                    self.finished = True
                    break
                cursor = 0
            pages = chunk.pages
            limit = len(pages)
            if cursor >= limit:
                tail = chunk.tail
                chunk = None
                if tail is None:
                    continue
                # Delimiting non-access op: advance the deferred clock
                # past the fast hits that precede it, sync the region
                # memo around the interpreted execution (_execute drops
                # it on VMA-changing ops and keeps it for PhaseOp), and
                # honour the phase-boundary yield.
                if tracer_active and full_hits > flushed_hits:
                    TRACER.advance((full_hits - flushed_hits) * fast_cycles)
                    flushed_hits = full_hits
                self._memo_region = memo_region
                self._memo_start = memo_start
                self._memo_npages = memo_npages
                self._execute(tail)
                executed += 1
                memo_region = self._memo_region
                memo_start = self._memo_start
                memo_npages = self._memo_npages
                last_fast = False
                if isinstance(tail, PhaseOp):
                    break
                continue
            end = cursor + (max_ops - executed)
            if end > limit:
                end = limit
            blocks = chunk.blocks
            ridx = chunk.region_idx
            writes = chunk.writes
            if ridx.__class__ is int and writes.__class__ is bool:
                # Single-region, uniform-write segment: region and
                # permission checks hoist out of the loop entirely.
                region = chunk.regions[ridx]
                write = writes
                readonly = not write
                if region is not memo_region:
                    vma = regions_get(region)
                    if vma is None:
                        # Raises the interpreted unmapped-region error.
                        access(AccessOp(region, pages[cursor], blocks[cursor], write))  # simlint: disable=hotpath-alloc
                    memo_region = region
                    memo_start = vma.start_vpn
                    memo_npages = vma.npages
                start = memo_start
                npages = memo_npages
                pages_seg = pages[cursor:end]
                blocks_seg = blocks[cursor:end]
                if end - cursor >= _VEC_MIN:
                    # Vectorized all-hit attempt: gather the segment's
                    # host frames from the mirror's dense array in one
                    # fancy index (the writable-only variant for store
                    # segments folds the permission check into the
                    # gather -- read-only entries read as absent), then
                    # test whole-segment data-L1 residency with one
                    # C-level issuperset against the flat membership
                    # mirror. The arrays are indexed by vpn - xc.base,
                    # and any slow-path install may replace them or move
                    # the base, so both are re-read per segment. Any
                    # failed guard -- page out of region bounds, slot
                    # past either end of the array (a negative slot
                    # would wrap to a live entry and fake a hit), any
                    # absent frame, any non-resident block -- falls
                    # through to the scalar loops below, which locate
                    # and replay the residue in stream order. Success
                    # means every op in the segment is a full fast hit,
                    # so the only state change is the bulk LRU flush.
                    vpns_np = np.array(pages_seg, dtype=np.int64)  # simlint: disable=hotpath-alloc
                    arr = xc.hfn6 if readonly else xc.hfn6_w
                    xbase = xc.base
                    off = start - xbase
                    mx = int(vpns_np.max())
                    if (
                        mx < npages
                        and off + mx < arr.shape[0]
                        and int(vpns_np.min()) >= max(0, -off)
                    ):
                        vpns_np += off
                        hfn6 = arr[vpns_np]  # simlint: disable=hotpath-alloc
                        if int(hfn6.min()) >= 0:
                            np.bitwise_or(
                                hfn6,
                                np.array(blocks_seg, dtype=np.int64),  # simlint: disable=hotpath-alloc
                                out=hfn6,
                            )
                            cblocks = hfn6.tolist()  # simlint: disable=hotpath-alloc
                            if dl1_members.issuperset(cblocks):
                                full_hits += end - cursor
                                last_fast = True
                                vpns_np += xbase
                                self._flush_lru(vpns_np.tolist(), cblocks)  # simlint: disable=hotpath-alloc
                                executed += end - cursor
                                cursor = end
                                continue
                # Deferred-LRU run: during a run of consecutive full
                # hits, no TLB-set or data-L1-set *membership* changes
                # (every membership change goes through the slow path,
                # which flushes first), so per-op MRU refreshes can be
                # recorded as plain appends and applied in bulk -- move
                # to MRU in last-occurrence order -- at the run's end
                # (_flush_lru). The pending list's length doubles as the
                # run's hit count, so the all-hit loop body is exactly
                # probe + two C-level appends.
                pend_vpns = []  # simlint: disable=hotpath-alloc
                pendv = pend_vpns.append
                pend_cblocks = []  # simlint: disable=hotpath-alloc
                pendc = pend_cblocks.append
                if (
                    readonly
                    and min(pages_seg) >= 0
                    and max(pages_seg) < npages
                ):
                    # Hot variant: all pages in bounds (one C-level
                    # min/max pass replaces per-op checks) and no
                    # stores, so the permission test reduces to the
                    # mirror probe itself.
                    for page, block in zip(pages_seg, blocks_seg):
                        vpn = start + page
                        entry = xget(vpn)
                        if entry is not None:
                            cblock = (entry[0] << _BLOCK_SHIFT) | block
                            if cblock in dl1_sets[cblock % dl1_nsets]:
                                pendv(vpn)
                                pendc(cblock)
                                continue
                            # Mirror hit, data-L1 miss: flush the
                            # deferred run, refresh this op's own TLB
                            # LRU position (it *is* a TLB hit), then
                            # replay the deeper levels in stream order.
                            full_hits += len(pend_vpns)
                            if pend_vpns:
                                self._flush_lru(pend_vpns, pend_cblocks)
                                pend_vpns.clear()
                                pend_cblocks.clear()
                            ways = entry[1]
                            del ways[vpn]
                            ways[vpn] = entry[0]
                            slow_tlb_hits += 1
                            if tracer_active and full_hits > flushed_hits:
                                TRACER.advance(
                                    (full_hits - flushed_hits) * fast_cycles
                                )
                                flushed_hits = full_hits
                            cycles = base_cycles + hier.access_block(
                                cblock, "data"
                            )
                            if tracer_active:
                                TRACER.advance(cycles)
                            if measuring:
                                mcounters.accesses += 1
                                mcounters.cycles += cycles
                            continue
                        # Mirror miss: flush the deferred run, replay
                        # the whole op through the slow path.
                        full_hits += len(pend_vpns)
                        if pend_vpns:
                            self._flush_lru(pend_vpns, pend_cblocks)
                            pend_vpns.clear()
                            pend_cblocks.clear()
                        if tracer_active and full_hits > flushed_hits:
                            TRACER.advance(
                                (full_hits - flushed_hits) * fast_cycles
                            )
                            flushed_hits = full_hits
                        access(AccessOp(region, page, block, write))  # simlint: disable=hotpath-alloc
                else:
                    for page, block in zip(pages_seg, blocks_seg):
                        if 0 <= page < npages:
                            vpn = start + page
                            entry = xget(vpn)
                            if entry is not None and (
                                readonly or entry[2]
                            ):
                                cblock = (entry[0] << _BLOCK_SHIFT) | block
                                if cblock in dl1_sets[cblock % dl1_nsets]:
                                    pendv(vpn)
                                    pendc(cblock)
                                    continue
                                # Mirror hit, data-L1 miss: flush the
                                # deferred run, refresh this op's own
                                # TLB LRU position (it *is* a TLB
                                # hit), then replay the deeper levels
                                # in stream order.
                                full_hits += len(pend_vpns)
                                if pend_vpns:
                                    self._flush_lru(
                                        pend_vpns, pend_cblocks
                                    )
                                    pend_vpns.clear()
                                    pend_cblocks.clear()
                                ways = entry[1]
                                del ways[vpn]
                                ways[vpn] = entry[0]
                                slow_tlb_hits += 1
                                if (
                                    tracer_active
                                    and full_hits > flushed_hits
                                ):
                                    TRACER.advance(
                                        (full_hits - flushed_hits)
                                        * fast_cycles
                                    )
                                    flushed_hits = full_hits
                                cycles = base_cycles + hier.access_block(
                                    cblock, "data"
                                )
                                if tracer_active:
                                    TRACER.advance(cycles)
                                if measuring:
                                    mcounters.accesses += 1
                                    mcounters.cycles += cycles
                                continue
                        # Mirror miss / write-to-RO / out-of-bounds
                        # page: flush the deferred run, replay the
                        # whole op through the slow path.
                        full_hits += len(pend_vpns)
                        if pend_vpns:
                            self._flush_lru(pend_vpns, pend_cblocks)
                            pend_vpns.clear()
                            pend_cblocks.clear()
                        if tracer_active and full_hits > flushed_hits:
                            TRACER.advance(
                                (full_hits - flushed_hits) * fast_cycles
                            )
                            flushed_hits = full_hits
                        access(AccessOp(region, page, block, write))  # simlint: disable=hotpath-alloc
                # Segment end: the pending run is non-empty iff the
                # segment's final op was a full hit (hits append, only
                # residues clear), which is exactly last_fast.
                last_fast = bool(pend_vpns)
                if pend_vpns:
                    full_hits += len(pend_vpns)
                    self._flush_lru(pend_vpns, pend_cblocks)
                executed += end - cursor
                cursor = end
                continue
            # Generic segment: per-op region index and/or write flags.
            regions_tab = chunk.regions
            uniform_region = ridx.__class__ is int
            uniform_write = writes.__class__ is bool
            i = cursor
            while i < end:
                region = regions_tab[ridx if uniform_region else ridx[i]]
                write = writes if uniform_write else writes[i]
                page = pages[i]
                if region is not memo_region:
                    vma = regions_get(region)
                    if vma is None:
                        # Raises the interpreted unmapped-region error.
                        access(AccessOp(region, page, blocks[i], write))  # simlint: disable=hotpath-alloc
                    memo_region = region
                    memo_start = vma.start_vpn
                    memo_npages = vma.npages
                if 0 <= page < memo_npages:
                    vpn = memo_start + page
                    entry = xget(vpn)
                    if entry is not None and (entry[2] or not write):
                        hfn = entry[0]
                        ways = entry[1]
                        del ways[vpn]
                        ways[vpn] = hfn  # refresh L1 TLB LRU position
                        cblock = (hfn << _BLOCK_SHIFT) | blocks[i]
                        cways = dl1_sets[cblock % dl1_nsets]
                        if cblock in cways:
                            del cways[cblock]
                            cways[cblock] = None  # move to MRU
                            full_hits += 1
                            last_fast = True
                            i += 1
                            continue
                        slow_tlb_hits += 1
                        last_fast = False
                        if tracer_active and full_hits > flushed_hits:
                            TRACER.advance(
                                (full_hits - flushed_hits) * fast_cycles
                            )
                            flushed_hits = full_hits
                        cycles = base_cycles + hier.access_block(
                            cblock, "data"
                        )
                        if tracer_active:
                            TRACER.advance(cycles)
                        if measuring:
                            mcounters.accesses += 1
                            mcounters.cycles += cycles
                        i += 1
                        continue
                last_fast = False
                if tracer_active and full_hits > flushed_hits:
                    TRACER.advance((full_hits - flushed_hits) * fast_cycles)
                    flushed_hits = full_hits
                access(AccessOp(region, page, blocks[i], write))  # simlint: disable=hotpath-alloc
                i += 1
            executed += end - cursor
            cursor = end
        # Slice-exit flush of the deferred fast-hit increments. Every
        # deferred quantity is a pure increment no model code reads
        # mid-slice (hit_rate and friends are snapshot-time properties),
        # every full hit charges the same constant cycles, and a PhaseOp
        # ends the slice before harness code can observe state -- so the
        # flushed totals are indistinguishable from per-op bumps.
        tlb_hits = full_hits + slow_tlb_hits
        if tlb_hits:
            tlb_l1.hits += tlb_hits
        if full_hits:
            dl1.hits += full_hits
            if last_fast:
                hier.last_outcome = _OUTCOME_L1
            dcounters = hier._data_counters
            if dcounters is None:
                # Resolved lazily so a slice with no data access creates
                # no stream entry, exactly like the interpreted path.
                dcounters = hier._data_counters = hier.counters("data")
            dcounters.accesses += full_hits
            dcounters.cycles += full_hits * l1_latency
            dcounters.served_by[_OUTCOME_L1] += full_hits
            if measuring:
                mcounters.accesses += full_hits
                mcounters.cycles += full_hits * fast_cycles
        if tracer_active and full_hits > flushed_hits:
            TRACER.advance((full_hits - flushed_hits) * fast_cycles)
        self._chunk = chunk
        self._cursor = cursor
        self._memo_region = memo_region
        self._memo_start = memo_start
        self._memo_npages = memo_npages
        self.ops_executed += executed
        return executed

    def _flush_lru(self, vpns, cblocks) -> None:
        """Apply a deferred full-hit run's LRU refreshes in bulk.

        During the run no set *membership* changed (any membership
        change goes through the slow path, which flushes first), so
        the inline per-op refreshes reduce to: move each touched key
        to MRU, ordered by its *last* access in the run. The
        ``dict.fromkeys(reversed(...))`` idiom computes exactly that
        order at C speed (first occurrence in the reversed stream =
        last occurrence in the original; iterating the result
        reversed restores stream direction), and the final dict
        states are byte-identical to per-op refreshing.
        """
        xget = self._xlate.get
        for vpn in reversed(dict.fromkeys(reversed(vpns))):
            entry = xget(vpn)
            ways = entry[1]
            del ways[vpn]
            ways[vpn] = entry[0]
        dl1_sets = self._dl1_sets
        dl1_nsets = self._dl1_nsets
        for cblock in reversed(dict.fromkeys(reversed(cblocks))):
            cways = dl1_sets[cblock % dl1_nsets]
            del cways[cblock]
            cways[cblock] = None

    # ------------------------------------------------------------------ #
    # Measurement control
    # ------------------------------------------------------------------ #

    def start_measurement(self) -> None:
        """Zero counters and begin attributing work to them.

        Mirrors the paper's methodology of measuring from a defined point
        (e.g. after the allocation phase in §3.3).
        """
        self.counters = PerfCounters()
        self.core.hierarchy.reset_counters()
        self.measuring = True

    def finalize_measurement(self) -> None:
        """Capture stream counters and fragmentation state into counters."""
        gpt = self.core.hierarchy.counters("gpt")
        hpt = self.core.hierarchy.counters("hpt")
        data = self.core.hierarchy.counters("data")
        self.counters.gpt_accesses = gpt.accesses
        self.counters.gpt_memory_accesses = gpt.memory_accesses
        self.counters.hpt_accesses = hpt.accesses
        self.counters.hpt_memory_accesses = hpt.memory_accesses
        self.counters.data_memory_accesses = data.memory_accesses
        self.counters.host_pt_fragmentation = host_pt_fragmentation(self.process)
        self.counters.fragmented_group_fraction = fragmented_group_fraction(
            self.process
        )
        self.measuring = False

    # ------------------------------------------------------------------ #
    # Operation execution
    # ------------------------------------------------------------------ #

    def _execute(self, op: MemoryOp) -> None:
        # Mmap/brk/free can replace or grow a VMA, so they drop the
        # batched core's region memo; PhaseOp (and plain accesses) cannot,
        # so the memo survives phase boundaries.
        if isinstance(op, AccessOp):
            self._access(op)
        elif isinstance(op, MmapOp):
            self._memo_region = None
            self._check_unbound(op.region, "mmap")
            self._regions[op.region] = self.kernel.mmap(
                self.process, op.npages, op.region
            )
        elif isinstance(op, BrkOp):
            self._memo_region = None
            self._check_unbound(op.region, "brk")
            self._regions[op.region] = self.kernel.brk(
                self.process, op.grow_pages
            )
        elif isinstance(op, FreeOp):
            self._memo_region = None
            self._free(op)
        elif isinstance(op, PhaseOp):
            self.current_phase = op.phase
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown op {op!r}")

    def _check_unbound(self, region: str, kind: str) -> None:
        # Rebinding a live name would leave its VMA mapped but
        # unreachable, so it could never be freed.
        if region in self._regions:
            raise SimulationError(
                f"{self.workload.name}: {kind} of live region {region!r}"
            )

    def _vpn_for(self, op: AccessOp) -> int:
        vma = self._regions.get(op.region)
        if vma is None:
            raise SimulationError(
                f"{self.workload.name}: access to unmapped region {op.region!r}"
            )
        if not 0 <= op.page < vma.npages:
            raise SimulationError(
                f"{self.workload.name}: page {op.page} outside region "
                f"{op.region!r} ({vma.npages} pages)"
            )
        return vma.start_vpn + op.page

    def _access(self, op: AccessOp) -> None:
        if self.fast_forward:
            vpn = self._vpn_for(op)
            if not self.process.page_table.is_mapped(vpn):
                outcome = self.kernel.handle_fault(self.process, vpn, op.write)
                # Keep the host dimension consistent: the first real access
                # would have EPT-faulted the frame in; do it eagerly here.
                self.walker.host.ensure_backed(self.walker.vm, outcome.frame)
            return
        # Interpreted path. The TLB-hit fast path lives in
        # _step_batched; this method serves its residue replays,
        # profiled runs, and REPRO_NO_FASTPATH reference runs, and its
        # state transitions are the contract the batched core replays.
        vpn = self._vpn_for(op)
        cycles = self._base_cycles
        hfn = self.core.tlb.lookup(vpn)
        if hfn is None:
            if self.measuring:
                self.counters.tlb_misses += 1
            hfn, walk_extra = self._translate(vpn, op.write)
            cycles += walk_extra
        data_addr = (hfn << PAGE_SHIFT) | (
            (op.block & (BLOCKS_PER_PAGE - 1)) << CACHE_BLOCK_SHIFT
        )
        data_latency = self._data_access(data_addr)
        cycles += data_latency
        if PROFILER.enabled:
            PROFILER.add(
                (
                    "access",
                    "data",
                    self.core.hierarchy.last_outcome.name.lower(),
                ),
                data_latency,
            )
            PROFILER.add(
                ("access", "issue"), self.core.config.base_cycles_per_access
            )
        if TRACER.active:
            TRACER.advance(cycles)
        if self.measuring:
            self.counters.accesses += 1
            self.counters.cycles += cycles

    def _translate(self, vpn: int, write: bool) -> tuple:
        """TLB-miss path: nested walk, fault handling, COW break."""
        cycles = 0
        if write:
            pte = self.process.page_table.lookup(vpn)
            if pte is not None and pte_flags(pte) & PteFlags.COW:
                outcome = self.kernel.handle_fault(self.process, vpn, write=True)
                cycles += outcome.cycles
                if self.measuring:
                    self.counters.faults += 1
                    self.counters.fault_cycles += outcome.cycles
                    self.counters.fault_latencies.record(outcome.cycles)
        result = self.walker.walk(vpn)
        if result.faulted:
            outcome = self.kernel.handle_fault(self.process, vpn, write)
            cycles += outcome.cycles
            if self.measuring:
                self.counters.faults += 1
                self.counters.fault_cycles += outcome.cycles
                self.counters.fault_latencies.record(outcome.cycles)
            result = self.walker.walk(vpn)
            if result.faulted:  # pragma: no cover - defensive
                raise SimulationError(f"walk still faulting after fault at {vpn:#x}")
        cycles += result.cycles
        if self.measuring:
            self.counters.walk_cycles += result.cycles
            self.counters.host_walk_cycles += result.host_cycles
        self.core.tlb.insert(vpn, result.host_frame)
        return result.host_frame, cycles

    def _free(self, op: FreeOp) -> None:
        vma = self._regions.get(op.region)
        if vma is None:
            raise SimulationError(
                f"{self.workload.name}: free of unknown region {op.region!r}"
            )
        start = op.start_page
        npages = op.npages or (vma.npages - start)
        if not 0 <= start < start + npages <= vma.npages:
            end = start + op.npages if op.npages else "end"
            raise SimulationError(
                f"{self.workload.name}: free of pages {start}..{end} outside "
                f"region {op.region!r} ({vma.npages} pages)"
            )
        self.kernel.munmap(self.process, vma.start_vpn + start, npages)
        if start == 0 and npages == vma.npages:
            del self._regions[op.region]


class Simulation:
    """A complete simulated platform hosting colocated workloads."""

    def __init__(self, platform: PlatformConfig) -> None:
        import random

        self.platform = platform
        rng = random.Random(platform.seed)
        self.host = HostKernel(platform.host)
        self.vm = self.host.create_vm(platform.guest.memory_bytes)
        self.kernel = GuestKernel(platform.guest, platform.machine, rng)
        self.machine = Machine(platform.machine)
        self.scheduler = RoundRobinScheduler()
        self.runs: List[WorkloadRun] = []
        self._runs_by_pid: Dict[int, WorkloadRun] = {}
        self.turns = 0
        self._samplers: List[PeriodicSampler] = []
        self.kernel.add_unmap_observer(self._on_unmap, self._on_unmap_many)
        if TRACER.sample_interval_cycles:
            self.add_sampler(
                standard_sampler(self, TRACER.sample_interval_cycles)
            )

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #

    def add_workload(
        self,
        workload: Workload,
        weight: int = 1,
        memory_limit_bytes: int = 0,
    ) -> WorkloadRun:
        """Colocate ``workload`` inside the VM on its own core."""
        process = self.kernel.create_process(workload.name, memory_limit_bytes)
        core = self.machine.new_core()
        walker = NestedWalker(
            guest_pt=process.page_table,
            vm=self.vm,
            host=self.host,
            hierarchy=core.hierarchy,
            guest_pwc=core.guest_pwc,
            host_pwc=core.host_pwc,
        )
        run = WorkloadRun(workload, process, core, walker, self.kernel, weight)
        self.runs.append(run)
        self._runs_by_pid[process.pid] = run
        self.scheduler.add(run)
        return run

    def _on_unmap(self, pid: int, vpn: int) -> None:
        run = self._runs_by_pid.get(pid)
        if run is not None:
            run.core.invalidate_translation(vpn)

    def _on_unmap_many(self, pid: int, vpns) -> None:
        """Bulk shootdown: one run lookup per range instead of per page.

        Order-independent pure removals, so the final TLB/mirror state
        is identical to per-page :meth:`_on_unmap` delivery.
        """
        run = self._runs_by_pid.get(pid)
        if run is not None:
            run.core.invalidate_translations(vpns)

    def add_sampler(self, sampler: PeriodicSampler) -> PeriodicSampler:
        """Register a :class:`~repro.obs.sampler.PeriodicSampler` to be
        driven from this simulation's turn loop."""
        self._samplers.append(sampler)
        return sampler

    # ------------------------------------------------------------------ #
    # Driving
    # ------------------------------------------------------------------ #

    def turn(self) -> int:
        """One scheduler round plus a reclaim-daemon wakeup.

        Turn boundaries also drive the observability plumbing: the tracer's
        turn counter, the ``sched.turn`` tracepoint, and any registered
        periodic samplers (which see post-reclaim state, so turn-cadence
        series match the legacy per-experiment sampling loops exactly).
        """
        executed = self.scheduler.turn()
        kernel = self.kernel
        if kernel.reclaimer is not None:
            kernel.run_reclaim()
        self.turns += 1
        TRACER.turn = self.turns
        if _tp_sched_turn.enabled:
            _tp_sched_turn.emit(turn=self.turns, ops=executed)
        if self._samplers:
            for sampler in self._samplers:
                sampler.on_turn()
        return executed

    def run_until_phase(
        self,
        run: WorkloadRun,
        phase: WorkloadPhase,
        max_turns: int = 1_000_000,
    ) -> None:
        """Advance all runs until ``run`` reaches ``phase``."""
        for _ in range(max_turns):
            if run.current_phase == phase or run.finished:
                return
            if self.turn() == 0:
                break
        raise SimulationError(
            f"{run.workload.name} never reached phase {phase} "
            f"(currently {run.current_phase})"
        )

    def run_until_finished(
        self, run: WorkloadRun, max_turns: int = 1_000_000
    ) -> None:
        """Advance all runs until ``run``'s op stream is exhausted."""
        for _ in range(max_turns):
            if run.finished:
                return
            if self.turn() == 0 and not run.finished:
                raise SimulationError(
                    f"{run.workload.name} stalled before finishing"
                )
        raise SimulationError(f"{run.workload.name} did not finish in budget")

    def stop(self, run: WorkloadRun) -> None:
        """Kill a run (stop a co-runner, as §3.3's methodology does)."""
        run.stop()

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def result_for(self, run: WorkloadRun) -> RunResult:
        """Finalize and package one run's measurement."""
        run.finalize_measurement()
        return RunResult(
            name=run.workload.name,
            counters=run.counters,
            rss_pages=run.process.rss_pages,
            faults_total=run.process.faults,
            reservation_hits=run.process.reservation_hits,
            ops_executed=run.ops_executed,
        )

    def results(self) -> SimulationResult:
        """Package results for every run plus kernel/host statistics."""
        return SimulationResult(
            runs=[self.result_for(run) for run in self.runs],
            kernel_stats=self.kernel.stats,
            host_stats=self.host.stats,
            turns=self.turns,
        )
