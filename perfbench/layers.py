"""Per-layer tracing for the benchmark, kept entirely outside the program.

Spans are recorded by wrapping each layer's public entry points at class
level (and, where a caller imported a function by name, at the caller's
module binding). The wrappers must be installed *before* a
``Simulation`` is constructed: ``WorkloadRun``, ``CoreContext``,
``NestedWalker`` and ``PageWalker`` bind bound methods at construction,
and a bound method taken from a wrapped class attribute is the wrapper.

A layer is a ``repro`` package; a span name is ``<layer>.<entry>``.
Spans live in memory as parallel arrays (name id, parent index, start,
end) and are reduced to per-name counts and self times with numpy. A
span's self time is its duration minus the durations of its direct
children: the simulator is single-threaded, so children never overlap
and each lies inside its parent.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.pwc import PageWalkCache
from repro.core.allocator import PTEMagnetAllocator
from repro.mem.buddy import BuddyAllocator
from repro.os.kernel import GuestKernel
from repro.pagetable.radix import PageTable
from repro.pagetable.walker import PageWalker
from repro.sim import engine
from repro.sim.engine import Simulation
from repro.tlb.tlb import TlbHierarchy
from repro.virt.hypervisor import HostKernel
from repro.virt.nested import NestedWalker
from repro.workloads.base import Workload

#: (owner, attribute, span name) of every wrapped entry point. Each
#: attribute is defined in the owner's own ``__dict__``. The last two are
#: functions the engine imported by name, patched at the engine's binding
#: (the one ``WorkloadRun.finalize_measurement`` calls).
SPANS: Tuple[Tuple[object, str, str], ...] = (
    (Simulation, "turn", "sim.turn"),
    (TlbHierarchy, "lookup", "tlb.lookup"),
    (TlbHierarchy, "insert", "tlb.insert"),
    (TlbHierarchy, "invalidate", "tlb.invalidate"),
    (TlbHierarchy, "invalidate_many", "tlb.invalidate_many"),
    (NestedWalker, "walk", "virt.walk"),
    (HostKernel, "ensure_backed", "virt.backing"),
    (PageWalker, "walk", "pagetable.host_walk"),
    (PageTable, "map", "pagetable.map"),
    (PageTable, "unmap", "pagetable.unmap"),
    (PageTable, "update", "pagetable.update"),
    (PageTable, "lookup", "pagetable.lookup"),
    (PageTable, "translate", "pagetable.translate"),
    (PageTable, "is_mapped", "pagetable.is_mapped"),
    (PageTable, "walk_path_and_pte", "pagetable.walk_path"),
    (CacheHierarchy, "access", "cache.access"),
    (CacheHierarchy, "access_block", "cache.access_block"),
    (CacheHierarchy, "access_data", "cache.access_data"),
    (PageWalkCache, "lookup", "cache.pwc_lookup"),
    (PageWalkCache, "fill", "cache.pwc_fill"),
    (PageWalkCache, "invalidate_vpn", "cache.pwc_invalidate"),
    (GuestKernel, "handle_fault", "os.fault"),
    (GuestKernel, "mmap", "os.mmap"),
    (GuestKernel, "brk", "os.brk"),
    (GuestKernel, "munmap", "os.munmap"),
    (GuestKernel, "run_reclaim", "os.reclaim"),
    (PTEMagnetAllocator, "fault", "core.fault"),
    (PTEMagnetAllocator, "free_page", "core.free_page"),
    (BuddyAllocator, "alloc", "mem.alloc"),
    (BuddyAllocator, "alloc_frame", "mem.alloc_frame"),
    (BuddyAllocator, "alloc_frame_at", "mem.alloc_frame_at"),
    (BuddyAllocator, "free", "mem.free"),
    (engine, "host_pt_fragmentation", "metrics.host_pt_fragmentation"),
    (engine, "fragmented_group_fraction", "metrics.fragmented_group_fraction"),
)

#: Span name of one pull from a workload's ``ops_batched()`` stream.
CHUNK_SPAN = "workloads.chunk"

#: Spans per traced cell written to the Chrome trace file; self times
#: always use every span.
EXPORT_SPANS_PER_CELL = 50_000


class SpanRecorder:
    """In-memory span store: parallel arrays, reduced per cell.

    ``stack`` holds the indices of the open spans; ``-1`` is the root.
    """

    def __init__(self) -> None:
        self.name_ids: Dict[str, int] = {}
        self.names_by_id: List[str] = []
        self.ids = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: List[int] = [-1]
        #: name -> summed integer tallies reported by wrappers.
        self.tallies: Dict[str, int] = {}
        #: name -> [count, self seconds, inclusive seconds] over reduced cells.
        self.totals: Dict[str, List[float]] = {}
        #: Chrome trace_event records of the first spans of each cell.
        self.events: List[dict] = []
        self._origin: Optional[float] = None

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names_by_id)
            self.names_by_id.append(name)
        return nid

    def wrap(
        self,
        fn: Callable,
        name: str,
        tally: Optional[Callable[[object], int]] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``tally(result)``, when given, adds an integer to the span name's
        tally: a count made at the layer boundary (e.g. PT references per
        walk).
        """
        nid = self.name_id(name)
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        stack = self.stack
        clock = time.perf_counter
        tallies = self.tallies
        tallies.setdefault(name, 0)

        def span(*args, **kwargs):
            index = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if tally is not None:
                tallies[name] += tally(result)
            return result

        span.__wrapped__ = fn
        return span

    def reduce(self, cell: str) -> None:
        """Fold the recorded spans into per-name totals and clear them.

        Call between cells, with no span open. The first
        :data:`EXPORT_SPANS_PER_CELL` spans are kept as trace events
        tagged with ``cell``.
        """
        if self.stack != [-1]:
            raise RuntimeError(f"reduce() with open spans: {self.stack}")
        n = len(self.ids)
        if n == 0:
            return
        ids = np.frombuffer(self.ids, dtype=np.uint16).astype(np.intp)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        durations, self_times = self_time_arrays(parents, starts, ends)
        nnames = len(self.names_by_id)
        counts = np.bincount(ids, minlength=nnames)
        self_sums = np.bincount(ids, weights=self_times, minlength=nnames)
        incl_sums = np.bincount(ids, weights=durations, minlength=nnames)
        for nid, name in enumerate(self.names_by_id):
            if counts[nid]:
                total = self.totals.setdefault(name, [0, 0.0, 0.0])
                total[0] += int(counts[nid])
                total[1] += float(self_sums[nid])
                total[2] += float(incl_sums[nid])
        if self._origin is None:
            self._origin = float(starts[0])
        for i in range(min(n, EXPORT_SPANS_PER_CELL)):
            name = self.names_by_id[ids[i]]
            self.events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((starts[i] - self._origin) * 1e6, 3),
                "dur": round(durations[i] * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"cell": cell, "parent": int(parents[i])},
            })
        del ids, parents, starts, ends  # release the buffer exports
        for store in (self.ids, self.parents, self.starts, self.ends):
            del store[:]

    def self_seconds(self, prefix: str) -> float:
        """Summed self time of every span whose name starts with ``prefix``."""
        return sum(
            (total[1] for name, total in self.totals.items()
             if name.startswith(prefix)),
            0.0,
        )

    def count(self, name: str) -> int:
        total = self.totals.get(name)
        return int(total[0]) if total else 0

    def write_chrome_trace(self, path: str) -> None:
        """Write the kept spans as Chrome ``trace_event`` JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": self.events}, handle)


def self_time_arrays(parents, starts, ends):
    """(durations, self times) of a span forest given as parallel arrays.

    ``parents[i]`` is the index of span ``i``'s parent, ``-1`` for a root.
    """
    parents = np.asarray(parents, dtype=np.int64)
    durations = np.asarray(ends, dtype=np.float64) - np.asarray(
        starts, dtype=np.float64
    )
    child = parents >= 0
    covered = np.bincount(
        parents[child], weights=durations[child], minlength=len(durations)
    )
    return durations, durations - covered


class _TimedChunks:
    """A workload's ``ops_batched()`` iterator whose pulls are spans."""

    __slots__ = ("_pull",)

    def __init__(self, pull: Callable) -> None:
        self._pull = pull

    def __iter__(self) -> "_TimedChunks":
        return self

    def __next__(self):
        return self._pull()


def _chunk_ops(chunk) -> int:
    return len(chunk.pages) + (chunk.tail is not None)


def _targets() -> Iterable[Tuple[object, str, str]]:
    """(owner, attribute, span name) of every attribute the tracer wraps:
    :data:`SPANS` plus each workload class's own ``ops_batched``."""
    yield from SPANS
    seen = []
    todo = [Workload]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
            if "ops_batched" in cls.__dict__:
                yield cls, "ops_batched", CHUNK_SPAN


class LayerTracer:
    """Installs and removes the span wrappers; owns one SpanRecorder.

    Use as a context manager around the construction *and* the run of the
    traced simulations; every wrapped attribute is restored on exit.
    """

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        #: (owner, attribute, original) in installation order.
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        rec = self.recorder
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            if name == CHUNK_SPAN:
                replacement = self._timed_ops_batched(original)
            else:
                tally = _walk_refs if name == "virt.walk" else None
                replacement = rec.wrap(original, name, tally)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def _timed_ops_batched(self, ops_batched: Callable) -> Callable:
        rec = self.recorder

        def timed(workload):
            pull = ops_batched(workload).__next__
            return _TimedChunks(rec.wrap(pull, CHUNK_SPAN, _chunk_ops))

        timed.__wrapped__ = ops_batched
        return timed

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _walk_refs(result) -> int:
    """PT references one nested walk made (guest + host dimension)."""
    return result.guest_accesses + result.host_accesses


def wrapped_attributes() -> List[Tuple[object, str, object]]:
    """(owner, attribute, current value) of every attribute the tracer
    wraps; used to check that a traced run restored them all."""
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in _targets()]
