"""Workload traces: save and replay memory-operation streams.

The paper's benchmarks are real binaries whose memory behaviour we model
statistically. For users who *do* have a memory trace (from a pin tool,
a sampled profiler, or another simulator), this module defines a simple
JSON-lines interchange format and a workload that replays it:

    one JSON object per line, e.g.
    {"op": "mmap",   "region": "heap", "npages": 4096}
    {"op": "access", "region": "heap", "page": 17, "block": 3, "write": true}
    {"op": "free",   "region": "heap"}
    {"op": "phase",  "phase": "compute"}

Page counts and indices must be JSON integers and ``write`` a JSON
boolean; ``block``, ``write``, ``start_page`` and ``npages`` (of
``free``) may be left out. Any other line raises
:class:`~repro.errors.WorkloadError` naming ``path:line`` and the cause.

`save_trace` writes any op iterable in this format (useful for freezing
one of the bundled statistical workloads into a shareable artifact), and
`TraceWorkload` streams a file back into the simulator without
materialising it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Union

from ..errors import WorkloadError
from .base import (
    CHUNK_SIZE,
    AccessOp,
    BrkOp,
    FreeOp,
    MemoryOp,
    MmapOp,
    OpChunk,
    PhaseOp,
    Workload,
    WorkloadPhase,
    pack_chunk,
)


def op_to_record(op: MemoryOp) -> dict:
    """Serialize one op to its JSON record."""
    if isinstance(op, MmapOp):
        return {"op": "mmap", "region": op.region, "npages": op.npages}
    if isinstance(op, BrkOp):
        return {"op": "brk", "region": op.region, "grow_pages": op.grow_pages}
    if isinstance(op, AccessOp):
        return {
            "op": "access",
            "region": op.region,
            "page": op.page,
            "block": op.block,
            "write": op.write,
        }
    if isinstance(op, FreeOp):
        return {
            "op": "free",
            "region": op.region,
            "start_page": op.start_page,
            "npages": op.npages,
        }
    if isinstance(op, PhaseOp):
        return {"op": "phase", "phase": op.phase.value}
    raise WorkloadError(f"cannot serialize op {op!r}")


def _region(value) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _int(value) -> int:
    # No coercion: int() would accept "17" and truncate 1.9.
    if type(value) is not int:
        raise TypeError("expected a JSON integer")
    return value


def _bool(value) -> bool:
    # No coercion: bool("false") is True.
    if type(value) is not bool:
        raise TypeError("expected true or false")
    return value


#: Marks a key every record of its kind must carry.
_REQUIRED = object()

#: ``op -> (op type, ((key, converter, default), ...))``, keys in the op
#: type's field order.
_RECORD_FIELDS = {
    "mmap": (
        MmapOp,
        (("region", _region, _REQUIRED), ("npages", _int, _REQUIRED)),
    ),
    "brk": (
        BrkOp,
        (("region", _region, _REQUIRED), ("grow_pages", _int, _REQUIRED)),
    ),
    "access": (
        AccessOp,
        (
            ("region", _region, _REQUIRED),
            ("page", _int, _REQUIRED),
            ("block", _int, 0),
            ("write", _bool, False),
        ),
    ),
    "free": (
        FreeOp,
        (
            ("region", _region, _REQUIRED),
            ("start_page", _int, 0),
            ("npages", _int, 0),
        ),
    ),
    "phase": (PhaseOp, (("phase", WorkloadPhase, _REQUIRED),)),
}


def record_to_op(record, where: str = "trace record") -> MemoryOp:
    """Deserialize one JSON record to its op.

    Raises :class:`WorkloadError` prefixed with ``where`` (``path:line``
    when reading a file) for a non-object record, an unknown ``op``, a
    missing key, or a value of the wrong type.
    """
    if not isinstance(record, dict):
        raise WorkloadError(
            f"{where}: expected a JSON object, got {type(record).__name__}"
        )
    kind = record.get("op")
    spec = _RECORD_FIELDS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise WorkloadError(f"{where}: unknown trace record {record!r}")
    op_type, fields = spec
    values = []
    for key, convert, default in fields:
        if key not in record:
            if default is _REQUIRED:
                raise WorkloadError(
                    f"{where}: {kind!r} record is missing key {key!r}"
                )
            values.append(default)
            continue
        try:
            values.append(convert(record[key]))
        except (TypeError, ValueError) as exc:
            raise WorkloadError(
                f"{where}: {kind!r} record has bad {key!r} value "
                f"{record[key]!r} ({exc})"
            ) from None
    return op_type(*values)


def save_trace(path: Union[str, Path], ops: Iterable[MemoryOp]) -> int:
    """Write an op stream as JSON lines; returns the number of ops."""
    count = 0
    with open(path, "w") as handle:
        for op in ops:
            handle.write(json.dumps(op_to_record(op)) + "\n")
            count += 1
    return count


def load_trace(path: Union[str, Path]) -> Iterator[MemoryOp]:
    """Stream ops back from a JSON-lines trace file."""
    with open(path) as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{line_number}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise WorkloadError(f"{where}: invalid JSON ({exc})") from exc
            yield record_to_op(record, where)


class TraceWorkload(Workload):
    """Replay a JSON-lines trace file as a workload.

    The file is streamed, not materialised, so arbitrarily long traces
    replay in constant memory. ``footprint_pages`` defaults to the sum of
    mmap/brk sizes discovered by a quick pre-scan (pass it explicitly to
    skip the scan for huge files).
    """

    def __init__(
        self,
        path: Union[str, Path],
        name: str = None,
        footprint_pages: int = None,
        seed: int = 0,
    ) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise WorkloadError(f"trace file not found: {self.path}")
        super().__init__(name or self.path.stem, seed)
        if footprint_pages is None:
            footprint_pages = sum(
                op.npages if isinstance(op, MmapOp) else op.grow_pages
                for op in load_trace(self.path)
                if isinstance(op, (MmapOp, BrkOp))
            )
        self._footprint = footprint_pages

    @property
    def footprint_pages(self) -> int:
        return self._footprint

    def ops(self) -> Iterator[MemoryOp]:
        return load_trace(self.path)

    def ops_batched(self) -> Iterator[OpChunk]:
        # Packs the ops() stream: access records go into the chunk
        # arrays, every other op ends a chunk as its tail. Sharing
        # load_trace keeps parsing and its errors identical across the
        # two engine modes.
        regions: List[str] = []
        intern_index: Dict[str, int] = {}
        ridx: List[int] = []
        pages: List[int] = []
        blocks: List[int] = []
        writes: List[bool] = []
        for op in load_trace(self.path):
            if type(op) is AccessOp:
                idx = intern_index.get(op.region)
                if idx is None:
                    idx = intern_index[op.region] = len(regions)
                    regions.append(op.region)
                ridx.append(idx)
                pages.append(op.page)
                blocks.append(op.block & 63)
                writes.append(op.write)
                if len(pages) >= CHUNK_SIZE:
                    yield pack_chunk(
                        tuple(regions), ridx, pages, blocks, writes
                    )
                    ridx, pages, blocks, writes = [], [], [], []
                continue
            yield pack_chunk(tuple(regions), ridx, pages, blocks, writes, op)
            ridx, pages, blocks, writes = [], [], [], []
        if pages:
            yield pack_chunk(tuple(regions), ridx, pages, blocks, writes)
