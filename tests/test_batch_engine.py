"""Tests for the batched engine core (``WorkloadRun._step_batched``).

Three layers of defence, mirroring ``test_fastpath.py``:

* equivalence-oracle tests pin the chunk protocol itself --
  ``expand_chunks`` of any packed stream (adapter-produced or
  array-native) reproduces the per-op stream op for op, at every chunk
  size including 1;
* a hypothesis property test runs randomly scripted scenarios -- mixed
  mmap/brk/access/phase/free streams with both regions and permissions
  varying -- under both engine modes (batched, and the
  ``REPRO_NO_FASTPATH`` reference) and requires byte-identical metrics
  snapshots;
* a scheduling test pins op-precise slice accounting: per-turn executed
  op counts must match the reference engine turn for turn, including
  the early slice end at every phase boundary.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GuestConfig, HostConfig, PlatformConfig
from repro.metrics.collect import snapshot_simulation
from repro.sim.fastpath import NO_FASTPATH_ENV
from repro.units import MB
from repro.workloads import (
    AccessOp,
    BrkOp,
    FreeOp,
    MmapOp,
    PhaseOp,
    ScriptedWorkload,
    WorkloadPhase,
    chunk_ops,
    expand_chunks,
)
from repro.workloads.graph import Bfs, ConnectedComponents, Nibble, PageRank
from repro.workloads.spec import Gcc, LowPressureSpec, Mcf, Omnetpp, Xz

MODES = ("batched", "reference")


def _force_mode(mode):
    """Set the engine-mode env var for ``mode``; returns its saved value."""
    saved = os.environ.pop(NO_FASTPATH_ENV, None)
    if mode == "reference":
        os.environ[NO_FASTPATH_ENV] = "1"
    return saved


def _restore_mode(saved):
    if saved is None:
        os.environ.pop(NO_FASTPATH_ENV, None)
    else:
        os.environ[NO_FASTPATH_ENV] = saved


def _small_platform():
    return PlatformConfig(
        host=HostConfig(memory_bytes=64 * MB),
        guest=GuestConfig(memory_bytes=32 * MB),
    )


# --------------------------------------------------------------------- #
# Chunk protocol equivalence oracle
# --------------------------------------------------------------------- #

MIXED_SCRIPT = [
    MmapOp("a", 8),
    PhaseOp(WorkloadPhase.INIT),
    *(AccessOp("a", page, block=page % 64, write=True) for page in range(8)),
    BrkOp("heap", 4),
    *(AccessOp("heap", page % 4, block=page % 64) for page in range(10)),
    PhaseOp(WorkloadPhase.COMPUTE),
    MmapOp("b", 6),
    *(
        AccessOp("b" if page % 3 else "a", page % 6, block=page % 64,
                 write=bool(page % 2))
        for page in range(20)
    ),
    FreeOp("b"),
    *(AccessOp("a", page % 8, block=page % 64) for page in range(5)),
    PhaseOp(WorkloadPhase.DONE),
]


class TestChunkProtocol:
    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 256])
    def test_adapter_roundtrip_at_every_chunk_size(self, chunk_size):
        expanded = list(expand_chunks(chunk_ops(MIXED_SCRIPT, chunk_size)))
        assert expanded == MIXED_SCRIPT

    def test_adapter_interns_region_table(self):
        # Chunk region tables must hold identical string objects so the
        # engine's `region is memo_region` probe never false-misses.
        names = set()
        for chunk in chunk_ops(MIXED_SCRIPT):
            names.update(id(region) for region in chunk.regions)
        assert len(names) == 3  # a, heap, b -- one object each

    @pytest.mark.parametrize(
        "workload",
        [
            Mcf(seed=3),
            Xz(seed=3),
            Gcc(seed=3),
            Omnetpp(seed=3),
            LowPressureSpec("leela", 3, accesses=2000, footprint=64),
            LowPressureSpec("leela", 3, accesses=500, footprint=16,
                            hot_blocks=1),
            LowPressureSpec("leela", 3, accesses=500, footprint=16,
                            hot_blocks=8),
            PageRank(seed=3),
            ConnectedComponents(seed=3),
            Bfs(seed=3),
            Nibble(seed=3),
        ],
        ids=lambda w: w.name,
    )
    def test_native_emitters_match_per_op_stream(self, workload):
        # Array-native ops_batched overrides must replay the exact RNG
        # draw order of ops(): the oracle is op-for-op equality.
        assert list(expand_chunks(workload.ops_batched())) == list(
            workload.ops()
        )


# --------------------------------------------------------------------- #
# Mode scenario identity (hypothesis)
# --------------------------------------------------------------------- #


@st.composite
def scripted_scenarios(draw):
    """A valid mixed op script over two regions plus a heap.

    Region "a" (48 pages) exceeds the 32-entry L1 DTLB, so streams
    exercise TLB evictions and LRU-order-sensitive residency -- the
    regime where a deferred-LRU bookkeeping slip shows up as a
    diverging ``tlb_misses`` count.
    """
    script = [MmapOp("a", 48), MmapOp("b", 8), BrkOp("heap", 4)]
    sizes = {"a": 48, "b": 8, "heap": 4}
    n_events = draw(st.integers(min_value=1, max_value=250))
    b_mapped = True
    for _ in range(n_events):
        kind = draw(
            st.sampled_from(
                ["access", "access", "access", "access", "phase", "remap"]
            )
        )
        if kind == "access":
            region = draw(st.sampled_from(["a", "b", "heap"]))
            if region == "b" and not b_mapped:
                region = "a"
            script.append(
                AccessOp(
                    region,
                    draw(st.integers(0, sizes[region] - 1)),
                    block=draw(st.integers(0, 63)),
                    write=draw(st.booleans()),
                )
            )
        elif kind == "phase":
            script.append(PhaseOp(WorkloadPhase.COMPUTE))
        elif b_mapped:
            script.append(FreeOp("b"))
            b_mapped = False
        else:
            script.append(MmapOp("b", 8))
            b_mapped = True
    script.append(PhaseOp(WorkloadPhase.DONE))
    return script


def _run_script(script, mode, ops_per_slice=7):
    """Run a scripted scenario under ``mode``; returns the snapshot."""
    saved = _force_mode(mode)
    try:
        from repro.sim.engine import Simulation

        sim = Simulation(_small_platform())
        sim.scheduler.ops_per_slice = ops_per_slice
        run = sim.add_workload(ScriptedWorkload("scripted", script))
        run.start_measurement()
        per_turn = []
        while not run.finished:
            sim.turn()
            per_turn.append(run.ops_executed)
        result = sim.result_for(run)
        return snapshot_simulation("bench", sim, result).to_dict(), per_turn
    finally:
        _restore_mode(saved)


class TestModeIdentity:
    @given(script=scripted_scenarios())
    @settings(max_examples=25, deadline=None)
    def test_random_scripts_identical_across_modes(self, script):
        docs = {}
        turns = {}
        for mode in MODES:
            docs[mode], turns[mode] = _run_script(script, mode)
        rendered = {
            mode: json.dumps(doc, sort_keys=True)
            for mode, doc in docs.items()
        }
        assert rendered["batched"] == rendered["reference"]
        # Slice accounting is op-precise: same ops executed per turn.
        assert turns["batched"] == turns["reference"]


# --------------------------------------------------------------------- #
# Scheduling precision
# --------------------------------------------------------------------- #


class TestSchedulingPrecision:
    def test_phase_boundary_ends_slice_early_in_every_mode(self):
        # A phase op mid-stream must end that slice in all engines, so
        # phase-triggered co-runner start/stop stays turn-exact.
        script = [
            MmapOp("a", 8),
            *(AccessOp("a", page % 8, block=0) for page in range(5)),
            PhaseOp(WorkloadPhase.COMPUTE),
            *(AccessOp("a", page % 8, block=0) for page in range(20)),
            PhaseOp(WorkloadPhase.DONE),
        ]
        turns = {
            mode: _run_script(script, mode, ops_per_slice=16)[1]
            for mode in MODES
        }
        assert turns["batched"] == turns["reference"]
        # The first slice really did end early, at the COMPUTE PhaseOp
        # (mmap + 5 accesses + the phase op), not at the 16-op budget.
        assert turns["batched"][0] == 7

    def test_tlb_pressure_with_dl1_miss_residue(self):
        # Regression: an op that hits the translation mirror but
        # misses the data L1 is still a TLB hit, so it must refresh
        # its own TLB LRU position before replaying the data levels --
        # otherwise eviction victims diverge from the reference once
        # the footprint (48 pages) exceeds the 32-entry L1 DTLB.
        script = [MmapOp("a", 48)]
        for r in range(6):
            script.extend(
                AccessOp("a", page, block=(page * 7 + r * 13) % 64)
                for page in range(48)
            )
        script.append(PhaseOp(WorkloadPhase.DONE))
        docs = {mode: _run_script(script, mode)[0] for mode in MODES}
        rendered = {
            mode: json.dumps(doc, sort_keys=True)
            for mode, doc in docs.items()
        }
        assert rendered["batched"] == rendered["reference"]

    def test_segment_below_mirror_base_is_not_a_false_hit(self):
        # The first installs land high in region "a" (pages 64..127), so
        # the mirror's base sits at page 64 and its 64 slots hold pages
        # 96..127 live. The next segment (pages 32..63, >= _VEC_MIN ops)
        # is entirely below the base: its slots are -32..-1, which
        # numpy would wrap onto pages 96..127 -- live frames whose
        # blocks (page % 32) are all data-L1 resident. Only the lower
        # bounds check keeps that from passing as an all-hit.
        script = [
            MmapOp("a", 128),
            *(AccessOp("a", page, block=page % 32) for page in range(64, 128)),
            PhaseOp(WorkloadPhase.COMPUTE),
            *(AccessOp("a", page, block=page % 32) for page in range(32, 64)),
            PhaseOp(WorkloadPhase.DONE),
        ]
        docs = {
            mode: _run_script(script, mode, ops_per_slice=256)[0]
            for mode in MODES
        }
        assert json.dumps(docs["batched"], sort_keys=True) == json.dumps(
            docs["reference"], sort_keys=True
        )

    def test_mid_chunk_resume_preserves_stream(self):
        # ops_per_slice far below CHUNK_SIZE forces every chunk to be
        # consumed across many slices; totals must still be exact.
        script = [
            MmapOp("a", 8),
            *(
                AccessOp("a", page % 8, block=page % 64, write=bool(page % 3))
                for page in range(700)
            ),
            PhaseOp(WorkloadPhase.DONE),
        ]
        docs = {}
        turns = {}
        for mode in MODES:
            docs[mode], turns[mode] = _run_script(
                script, mode, ops_per_slice=5
            )
        assert turns["batched"] == turns["reference"]
        assert json.dumps(docs["batched"], sort_keys=True) == json.dumps(
            docs["reference"], sort_keys=True
        )
        assert turns["batched"][-1] == len(script)
