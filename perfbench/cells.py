"""The benchmark's workloads: each one paired cell of the paper.

A cell runs one scenario twice with the same seed, under the default
guest kernel and under PTEMagnet -- the paper's unit of measurement. The
benchmark drives every scenario through its own turn loop so it can time
each ``Simulation.turn()``; the scenarios use only public APIs
(``Simulation``, ``WorkloadRun.start_measurement``, the workload
registry, ``LowPressureSpec``, ``PlatformConfig.with_ptemagnet``).
"""

from __future__ import annotations

import gc
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cache.hierarchy import AccessOutcome
from repro.config import PlatformConfig
from repro.errors import SimulationError
from repro.experiments.common import (
    OPS_PER_SLICE,
    PRECHURN_TURNS,
    WARMUP_TURNS,
)
from repro.experiments.figure5 import OBJDET_WEIGHT
from repro.sim.engine import Simulation, WorkloadRun
from repro.workloads.base import WorkloadPhase
from repro.workloads.registry import make_benchmark, make_corunner
from repro.workloads.spec import LowPressureSpec

#: Accesses of the solo-hit leela stream per kernel: ~4-5 s of host time
#: and ~15.6k turns on the 64-op slice, so a pair gives >= 25k turns.
SOLO_ACCESSES = 1_000_000
#: §6.2 reservation-occupancy probe cadence, as in ``repro.experiments.sec62``.
PROBE_EVERY_TURNS = 50
#: Turn budget of every wait loop (``Simulation.run_until_*``'s default).
MAX_TURNS = 1_000_000

KERNELS = ("default", "ptemagnet")
STREAMS = ("data", "gpt", "hpt")


@dataclass
class Half:
    """One kernel's run of a cell."""

    kernel: str
    #: Simulated statistics of the measured benchmark (checked exactly).
    stats: Dict[str, float]
    #: Simulated memory ops of every run (accesses, mmap, free, phase).
    ops: int
    #: Host seconds constructing the Simulation and its workloads.
    build_s: float
    #: Host seconds from the start of the first turn to the measured
    #: benchmark's result (which includes the fragmentation scan).
    run_s: float
    #: Host nanoseconds of every ``Simulation.turn()``.
    turn_ns: array
    #: Layer counters read after the run, summed over cores/allocators.
    counts: Dict[str, int]


@dataclass
class Cell:
    """One paired cell: the same scenario and seed under both kernels."""

    workload: str
    seed: int
    halves: List[Half] = field(default_factory=list)

    def half(self, kernel: str) -> Half:
        return next(h for h in self.halves if h.kernel == kernel)

    @property
    def improvement_percent(self) -> Optional[float]:
        """PTEMagnet's execution-time improvement over the default kernel
        (``KernelComparison.improvement_percent``); ``None`` when the cell
        has no timed window."""
        before = self.half("default").stats["cycles"]
        after = self.half("ptemagnet").stats["cycles"]
        if before == 0:
            return None
        return (before - after) / before * 100.0


class TurnLoop:
    """Drives a Simulation turn by turn, timing each turn."""

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self.turn_ns = array("q")
        self.started: Optional[float] = None
        #: Called after every PROBE_EVERY_TURNS-th turn, untimed.
        self.probe: Optional[Callable[[], None]] = None

    def turn(self) -> int:
        if self.started is None:
            self.started = time.perf_counter()
        clock = time.perf_counter_ns
        begin = clock()
        executed = self.sim.turn()
        self.turn_ns.append(clock() - begin)
        if self.probe is not None and self.sim.turns % PROBE_EVERY_TURNS == 0:
            self.probe()
        return executed

    def turns(self, count: int) -> None:
        for _ in range(count):
            self.turn()

    def until(self, done: Callable[[], bool]) -> None:
        """Turn until ``done()``, failing like ``Simulation.run_until_*``
        on a stall or an exhausted budget."""
        for _ in range(MAX_TURNS):
            if done():
                return
            if self.turn() == 0 and not done():
                raise SimulationError("simulation stalled before the goal")
        raise SimulationError("turn budget exhausted")


def _phase_reached(run: WorkloadRun, phase: WorkloadPhase) -> Callable[[], bool]:
    return lambda: run.current_phase == phase or run.finished


def _colo_walk(platform: PlatformConfig, seed: int, mark_built):
    """Figure 6 / Table 4: pagerank colocated with objdet, following
    ``repro.experiments.common.run_colocated``."""
    sim = Simulation(platform)
    sim.scheduler.ops_per_slice = OPS_PER_SLICE
    corunner = sim.add_workload(
        make_corunner("objdet", seed), weight=OBJDET_WEIGHT
    )
    corunner.fast_forward = True
    benchmark = make_benchmark("pagerank", seed)
    loop = mark_built(sim)
    loop.turns(PRECHURN_TURNS)
    bench = sim.add_workload(benchmark)
    bench.fast_forward = True
    loop.until(_phase_reached(bench, WorkloadPhase.COMPUTE))
    bench.fast_forward = False
    corunner.fast_forward = False
    loop.turns(WARMUP_TURNS)
    return sim, loop, bench, {}


def _solo_hit(platform: PlatformConfig, seed: int, mark_built):
    """Low-TLB-pressure control: leela alone on the default 64-op slice."""
    sim = Simulation(platform)
    bench = sim.add_workload(
        LowPressureSpec("leela", seed, accesses=SOLO_ACCESSES)
    )
    loop = mark_built(sim)
    loop.until(_phase_reached(bench, WorkloadPhase.COMPUTE))
    return sim, loop, bench, {}


def _alloc_churn(platform: PlatformConfig, seed: int, mark_built):
    """§6.2: pagerank + objdet wholly fast-forwarded (fault path only),
    sampling reserved-but-unmapped pages like ``repro.experiments.sec62``."""
    sim = Simulation(platform)
    sim.scheduler.ops_per_slice = OPS_PER_SLICE
    corunner = sim.add_workload(
        make_corunner("objdet", seed), weight=OBJDET_WEIGHT
    )
    corunner.fast_forward = True
    bench = sim.add_workload(make_benchmark("pagerank", seed))
    bench.fast_forward = True
    occupancy = {"peak_unmapped_reserved": 0, "footprint_pages": 0}

    def probe() -> None:
        unmapped = sim.kernel.unmapped_reserved_pages(bench.process)
        if unmapped > occupancy["peak_unmapped_reserved"]:
            occupancy["peak_unmapped_reserved"] = unmapped
        rss = bench.process.rss_pages
        if rss > occupancy["footprint_pages"]:
            occupancy["footprint_pages"] = rss

    loop = mark_built(sim)
    loop.probe = probe
    return sim, loop, bench, occupancy


#: workload name -> scenario function. Each constructs the Simulation,
#: calls ``mark_built(sim)`` right before the first turn, runs up to the
#: measurement window (alloc-churn: its first turn), and returns
#: (sim, loop, bench, extra stats).
SCENARIOS = {
    "colo-walk": _colo_walk,
    "solo-hit": _solo_hit,
    "alloc-churn": _alloc_churn,
}


def run_half(workload: str, seed: int, kernel: str) -> Half:
    """Run one kernel's half of ``workload`` at ``seed``."""
    platform = PlatformConfig().with_ptemagnet(kernel == "ptemagnet")
    began = time.perf_counter()
    built: List[float] = []

    def mark_built(sim: Simulation) -> TurnLoop:
        built.append(time.perf_counter())
        return TurnLoop(sim)

    sim, loop, bench, extra = SCENARIOS[workload](platform, seed, mark_built)
    pre_window = _stream_counts([bench.core])
    bench.start_measurement()
    loop.until(lambda: bench.finished)
    result = sim.result_for(bench)
    ended = time.perf_counter()
    counters = result.counters
    stats = {
        "cycles": counters.cycles,
        "accesses": counters.accesses,
        "tlb_misses": counters.tlb_misses,
        "walk_cycles": counters.walk_cycles,
        "host_walk_cycles": counters.host_walk_cycles,
        "faults": counters.faults,
        "faults_total": result.faults_total,
        "host_pt_fragmentation": counters.host_pt_fragmentation,
        "bench_ops": result.ops_executed,
    }
    stats.update(extra)
    counts = layer_counts(sim)
    for key, value in pre_window.items():
        counts[key] += value
    return Half(
        kernel=kernel,
        stats=stats,
        ops=sum(run.ops_executed for run in sim.runs),
        build_s=built[0] - began,
        run_s=ended - loop.started,
        turn_ns=loop.turn_ns,
        counts=counts,
    )


def run_cell(
    workload: str,
    seed: int,
    after_half: Optional[Callable[[Half], None]] = None,
) -> Cell:
    """Run ``workload`` at ``seed`` under both kernels; ``after_half`` is
    called with each half as it completes."""
    cell = Cell(workload, seed)
    for kernel in KERNELS:
        half = run_half(workload, seed, kernel)
        # The finished Simulation is cyclic garbage: collect it now so the
        # next one does not start on top of it (peak RSS is one simulation).
        gc.collect()
        cell.halves.append(half)
        if after_half is not None:
            after_half(half)
    return cell


def _stream_counts(cores) -> Dict[str, int]:
    counts = {}
    for stream in STREAMS:
        accesses = l1 = memory = 0
        for core in cores:
            counters = core.hierarchy.streams.get(stream)
            if counters is not None:
                accesses += counters.accesses
                l1 += counters.served_by[AccessOutcome.L1]
                memory += counters.memory_accesses
        counts[f"cache.accesses.{stream}"] = accesses
        counts[f"cache.l1.{stream}"] = l1
        counts[f"cache.memory.{stream}"] = memory
    return counts


def layer_counts(sim: Simulation) -> Dict[str, int]:
    """The program's own counters, read (never reset) after a run.

    Cache stream counters restart at the benchmark's measurement window;
    ``run_half`` adds back the benchmark core's pre-window counts.
    """
    cores = sim.machine.cores
    kernel = sim.kernel
    counts = _stream_counts(cores)
    counts["sim.turns"] = sim.turns
    counts["tlb.lookups"] = sum(core.tlb.lookups for core in cores)
    counts["tlb.misses"] = sum(core.tlb.misses for core in cores)
    pwcs = [core.guest_pwc for core in cores] + [core.host_pwc for core in cores]
    counts["cache.pwc_hits"] = sum(pwc.hits for pwc in pwcs)
    counts["cache.pwc_lookups"] = sum(pwc.hits + pwc.misses for pwc in pwcs)
    counts["virt.ept_faults"] = sim.host.stats.ept_faults
    counts["os.faults"] = kernel.stats.faults
    counts["os.pages_freed"] = kernel.stats.pages_freed
    allocator = kernel.ptemagnet
    counts["core.faults"] = allocator.stats.faults if allocator else 0
    counts["core.reservation_hits"] = (
        allocator.stats.reservation_hits if allocator else 0
    )
    counts["core.part_lock_acquisitions"] = sum(
        run.process.part.total_lock_acquisitions()
        for run in sim.runs
        if run.process.part is not None
    )
    buddies = (kernel.buddy, sim.host.buddy)
    counts["mem.buddy_allocs"] = sum(b.stats.allocations for b in buddies)
    counts["mem.buddy_frees"] = sum(b.stats.frees for b in buddies)
    counts["mem.coalesces"] = sum(b.stats.coalesces for b in buddies)
    return counts
