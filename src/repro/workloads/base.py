"""Workload abstraction and the memory-operation event model.

A workload is a deterministic (seeded) generator of :class:`MemoryOp`
events that the simulation engine executes against a guest process:

* :class:`MmapOp` -- eagerly allocate a contiguous virtual region.
* :class:`AccessOp` -- touch one page of a region (faults in lazily).
* :class:`FreeOp` -- munmap a region (or part of it).
* :class:`PhaseOp` -- marker separating workload phases; experiment
  harnesses use these to start/stop co-runners and measurement windows,
  mirroring the paper's methodology (e.g. §3.3 stops stress-ng when
  pagerank finishes initialising).
"""

from __future__ import annotations

import abc
import enum
import random
import zlib
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)


class WorkloadPhase(enum.Enum):
    """Canonical phase markers emitted by the bundled workloads."""

    #: Virtual allocation done; physical population (faults) begins.
    INIT = "init"
    #: All data structures populated; the compute loop begins. The paper's
    #: measurement windows start here.
    COMPUTE = "compute"
    #: Compute finished.
    DONE = "done"


# Ops are NamedTuples rather than frozen dataclasses: workloads construct
# one object per simulated memory operation, and tuple construction is a
# single C-level call where a frozen dataclass pays one object.__setattr__
# per field. The public shape (field names, defaults, immutability,
# equality) is unchanged.


class MmapOp(NamedTuple):
    """Allocate ``npages`` of contiguous virtual memory as region ``region``."""

    region: str
    npages: int


class AccessOp(NamedTuple):
    """Access one page of a region.

    Attributes
    ----------
    region:
        Region tag from a previous :class:`MmapOp`.
    page:
        Page index within the region.
    block:
        Cache-block index within the page (0..63); lets workloads express
        intra-page locality.
    write:
        Whether the access is a store (relevant for COW).
    """

    region: str
    page: int
    block: int = 0
    write: bool = False


class BrkOp(NamedTuple):
    """Grow the heap by ``grow_pages`` pages; the new range becomes
    region ``region`` (heap growth is eager-virtual, like mmap)."""

    region: str
    grow_pages: int


class FreeOp(NamedTuple):
    """Unmap ``npages`` of a region starting at ``start_page``.

    ``npages == 0`` means the whole region.
    """

    region: str
    start_page: int = 0
    npages: int = 0


class PhaseOp(NamedTuple):
    """Phase boundary marker."""

    phase: WorkloadPhase


MemoryOp = Union[MmapOp, BrkOp, AccessOp, FreeOp, PhaseOp]


#: Default number of accesses per packed chunk: large enough to amortise
#: the engine's per-chunk bookkeeping over hundreds of accesses, small
#: enough that a chunk never spans more than a few scheduler slices.
CHUNK_SIZE = 256

#: Cache blocks per page; chunk ``blocks`` are canonicalised to this
#: range at pack time (the model only ever reads ``block % 64``).
_BLOCK_MASK = 63


class OpChunk(NamedTuple):
    """A packed run of accesses plus an optional delimiting non-access op.

    The batched workload protocol (:meth:`Workload.ops_batched`) yields
    these instead of per-op objects: parallel arrays of ``(region_idx,
    page, block, write)`` describing consecutive :class:`AccessOp`\\ s,
    with any non-access op (mmap/brk/free/phase) carried as the chunk's
    ``tail`` delimiter. The engine resolves a whole chunk against its
    translation mirror in one tight loop; :func:`expand_chunks` is the
    inverse, reconstructing the exact per-op stream.

    Attributes
    ----------
    regions:
        Interned region-name table for this chunk. Entries are the
        *same* string objects across chunks of one stream, so the
        engine's region memo can compare by identity.
    region_idx:
        Per-access index into ``regions`` -- or a single ``int`` when
        every access in the chunk targets one region (the common case,
        which the engine's single-region loop exploits).
    pages / blocks:
        Parallel per-access arrays. ``blocks`` are canonical
        (``0..63``); emitters mask at pack time so the hot loop does
        not.
    writes:
        Per-access store flags -- or a single ``bool`` when uniform.
    tail:
        The non-access op that ended the chunk, or ``None`` when the
        chunk simply filled up.
    """

    regions: Tuple[str, ...]
    region_idx: Union[int, Sequence[int]]
    pages: Sequence[int]
    blocks: Sequence[int]
    writes: Union[bool, Sequence[bool]]
    tail: Optional[MemoryOp] = None


def pack_chunk(
    regions: Tuple[str, ...],
    region_idx: Union[int, Sequence[int]],
    pages: Sequence[int],
    blocks: Sequence[int],
    writes: Union[bool, Sequence[bool]],
    tail: Optional[MemoryOp] = None,
) -> OpChunk:
    """Build an :class:`OpChunk`, compacting uniform-value arrays.

    A ``region_idx`` array with one distinct value collapses to an
    ``int`` and an all-equal ``writes`` array to a ``bool``, which is
    what routes the chunk onto the engine's fastest (single-region,
    uniform-write) resolve loop.
    """
    if not isinstance(region_idx, int):
        first = region_idx[0] if region_idx else 0
        if all(index == first for index in region_idx):
            region_idx = first
    if not isinstance(writes, bool):
        first = bool(writes[0]) if writes else False
        if all(bool(write) is first for write in writes):
            writes = first
    return OpChunk(tuple(regions), region_idx, pages, blocks, writes, tail)


def tail_chunk(op: MemoryOp) -> OpChunk:
    """A chunk carrying no accesses, just one delimiting non-access op."""
    return OpChunk((), 0, (), (), False, op)


def chunk_ops(
    ops: Iterable[MemoryOp], chunk_size: int = CHUNK_SIZE
) -> Iterator[OpChunk]:
    """Re-chunk any per-op stream into packed :class:`OpChunk`\\ s.

    The adapter behind the default :meth:`Workload.ops_batched`: it
    interns region names (so chunk region tables hold identical string
    objects), masks blocks to the canonical ``0..63`` range, folds
    every non-access op into the preceding chunk's tail, and compacts
    uniform region/write arrays via :func:`pack_chunk`.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    regions: List[str] = []
    intern_index: Dict[str, int] = {}
    ridx: List[int] = []
    pages: List[int] = []
    blocks: List[int] = []
    writes: List[bool] = []
    for op in ops:
        if op.__class__ is AccessOp:
            region = op.region
            idx = intern_index.get(region)
            if idx is None:
                idx = intern_index[region] = len(regions)
                regions.append(region)
            ridx.append(idx)
            pages.append(op.page)
            blocks.append(op.block & _BLOCK_MASK)
            writes.append(op.write)
            if len(pages) >= chunk_size:
                yield pack_chunk(tuple(regions), ridx, pages, blocks, writes)
                ridx, pages, blocks, writes = [], [], [], []
            continue
        yield pack_chunk(tuple(regions), ridx, pages, blocks, writes, op)
        ridx, pages, blocks, writes = [], [], [], []
    if pages:
        yield pack_chunk(tuple(regions), ridx, pages, blocks, writes)


def chunks_from_arrays(
    regions: Tuple[str, ...],
    region_idx: Union[int, Sequence[int]],
    pages: Sequence[int],
    blocks: Sequence[int],
    writes: Union[bool, Sequence[bool]],
    chunk_size: int = CHUNK_SIZE,
) -> Iterator[OpChunk]:
    """Slice fully-materialised parallel access arrays into chunks.

    The native-emitter helper: array-building workload code produces one
    set of arrays per stream segment and lets this carve them into
    engine-sized chunks (each compacted via :func:`pack_chunk`).
    ``blocks`` must already be canonical (``0..63``).
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    regions = tuple(regions)
    slice_ridx = not isinstance(region_idx, int)
    slice_writes = not isinstance(writes, bool)
    for start in range(0, len(pages), chunk_size):
        end = start + chunk_size
        yield pack_chunk(
            regions,
            region_idx[start:end] if slice_ridx else region_idx,
            pages[start:end],
            blocks[start:end],
            writes[start:end] if slice_writes else writes,
        )


def expand_chunks(chunks: Iterable[OpChunk]) -> Iterator[MemoryOp]:
    """Reconstruct the per-op stream a chunk stream packs.

    The batched protocol's equivalence oracle: for every workload,
    ``expand_chunks(w.ops_batched())`` must equal ``w.ops()`` op for op
    (blocks canonicalised to ``0..63``). The engine's interpreted paths
    consume batched streams through exactly this expansion, which is
    what keeps profiled and fast-forwarded execution byte-identical to
    the reference engine's native per-op generation.
    """
    for chunk in chunks:
        regions = chunk.regions
        ridx = chunk.region_idx
        writes = chunk.writes
        blocks = chunk.blocks
        uniform_region = isinstance(ridx, int)
        uniform_write = isinstance(writes, bool)
        for i, page in enumerate(chunk.pages):
            yield AccessOp(
                regions[ridx if uniform_region else ridx[i]],
                page,
                blocks[i],
                writes if uniform_write else writes[i],
            )
        if chunk.tail is not None:
            yield chunk.tail


class Workload(abc.ABC):
    """Base class for all workload models.

    Subclasses define :meth:`ops`, a generator of :class:`MemoryOp` events.
    Determinism contract: two workloads constructed with the same
    parameters and the same seed produce identical event streams, so the
    default-kernel and PTEMagnet runs of an experiment see the same memory
    behaviour (the paper's paired-run methodology).
    """

    def __init__(self, name: str, seed: int = 0) -> None:
        self.name = name
        self.seed = seed

    def rng(self) -> random.Random:
        """A fresh deterministic RNG for one generation of the stream.

        Seeded from a stable hash of the workload name (crc32, not
        ``hash()``, which is randomized per process) so streams reproduce
        across runs and machines.
        """
        return random.Random(zlib.crc32(self.name.encode()) ^ self.seed)

    @abc.abstractmethod
    def ops(self) -> Iterator[MemoryOp]:
        """Yield the workload's memory-operation stream."""

    def ops_batched(self) -> Iterator[OpChunk]:
        """Yield the op stream as packed :class:`OpChunk`\\ s.

        The batched engine protocol. The default re-chunks :meth:`ops`
        through the :func:`chunk_ops` adapter, so every legacy per-op
        generator batches without changes; workloads with array-native
        generation override this to skip per-op object construction.
        Contract either way: ``expand_chunks(self.ops_batched())``
        reproduces ``self.ops()`` op for op (same determinism
        guarantees; blocks canonicalised to ``0..63``).
        """
        return chunk_ops(self.ops())

    @property
    @abc.abstractmethod
    def footprint_pages(self) -> int:
        """Approximate resident footprint in pages once initialised."""

    @property
    def description(self) -> str:
        """One-line description for the Table 3 analog."""
        return self.__class__.__doc__.strip().splitlines()[0] if self.__class__.__doc__ else self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}(name={self.name!r}, seed={self.seed})"
