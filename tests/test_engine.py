"""Integration tests for the simulation engine."""

import pytest

from repro import PlatformConfig, Simulation, SimulationError
from repro.config import GuestConfig, HostConfig
from repro.sim.fastpath import NO_FASTPATH_ENV
from repro.units import MB
from repro.workloads import PageRank, ScriptedWorkload, StressNg, WorkloadPhase
from repro.workloads.base import (
    AccessOp,
    BrkOp,
    FreeOp,
    MemoryOp,
    MmapOp,
    PhaseOp,
    Workload,
)


class TinyWorkload(Workload):
    """Minimal deterministic workload for engine tests."""

    def __init__(self, npages=16, repeat=3, seed=0):
        super().__init__("tiny", seed)
        self.npages = npages
        self.repeat = repeat

    @property
    def footprint_pages(self):
        return self.npages

    def ops(self):
        yield MmapOp("data", self.npages)
        yield PhaseOp(WorkloadPhase.INIT)
        for page in range(self.npages):
            yield AccessOp("data", page, write=True)
        yield PhaseOp(WorkloadPhase.COMPUTE)
        for _ in range(self.repeat):
            for page in range(self.npages):
                yield AccessOp("data", page, block=page % 64)
        yield FreeOp("data")
        yield PhaseOp(WorkloadPhase.DONE)


def small_platform(**guest_kwargs):
    return PlatformConfig(
        host=HostConfig(memory_bytes=64 * MB),
        guest=GuestConfig(memory_bytes=32 * MB, **guest_kwargs),
    )


class TestBasicExecution:
    def test_run_to_completion(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(TinyWorkload())
        sim.run_until_finished(run)
        assert run.finished
        assert run.current_phase is WorkloadPhase.DONE

    def test_pages_faulted_and_freed(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(TinyWorkload(npages=16))
        sim.run_until_finished(run)
        assert run.process.faults == 16
        assert run.process.rss_pages == 0  # FreeOp released everything

    def test_measurement_window(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(TinyWorkload(npages=16, repeat=2))
        sim.run_until_phase(run, WorkloadPhase.COMPUTE)
        run.start_measurement()
        sim.run_until_finished(run)
        result = sim.result_for(run)
        # Only compute accesses counted: 2 sweeps of 16 pages.
        assert result.counters.accesses == 32
        assert result.counters.cycles > 0

    def test_unmeasured_run_counts_nothing(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(TinyWorkload())
        sim.run_until_finished(run)
        assert run.counters.accesses == 0

    def test_phase_navigation(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(TinyWorkload())
        sim.run_until_phase(run, WorkloadPhase.INIT)
        assert run.current_phase is WorkloadPhase.INIT
        sim.run_until_phase(run, WorkloadPhase.COMPUTE)
        assert run.current_phase is WorkloadPhase.COMPUTE

    def test_stop_run(self):
        sim = Simulation(small_platform())
        primary = sim.add_workload(TinyWorkload())
        co = sim.add_workload(StressNg(seed=1))
        sim.stop(co)
        sim.run_until_finished(primary)
        assert co.finished
        assert primary.finished

    def test_results_bundle(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(TinyWorkload())
        sim.run_until_finished(run)
        results = sim.results()
        assert results.run("tiny") is not None
        assert results.run("absent") is None
        assert results.turns == sim.turns


class TestTranslationPath:
    def test_tlb_warms_up(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(TinyWorkload(npages=8, repeat=4))
        sim.run_until_phase(run, WorkloadPhase.COMPUTE)
        run.start_measurement()
        sim.run_until_finished(run)
        # After the first compute sweep, the 8 pages live in the TLB.
        assert run.counters.tlb_misses < run.counters.accesses

    def test_walks_translate_to_host_frames(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(TinyWorkload(npages=4))
        sim.run_until_finished(run)
        assert sim.host.stats.pages_backed >= 4

    def test_fast_forward_skips_timing(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(TinyWorkload(npages=8))
        run.fast_forward = True
        run.start_measurement()
        sim.run_until_finished(run)
        assert run.counters.accesses == 0  # nothing timed
        assert run.process.faults == 8  # but faults happened

    def test_fast_forward_backs_host_frames(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(TinyWorkload(npages=8))
        run.fast_forward = True
        sim.run_until_finished(run)
        assert sim.host.stats.pages_backed >= 8

    def test_access_to_unknown_region_raises(self):
        class Broken(Workload):
            @property
            def footprint_pages(self):
                return 1

            def ops(self):
                yield AccessOp("ghost", 0)

        sim = Simulation(small_platform())
        run = sim.add_workload(Broken("broken"))
        with pytest.raises(SimulationError):
            sim.run_until_finished(run)

    def test_access_beyond_region_raises(self):
        class Broken(Workload):
            @property
            def footprint_pages(self):
                return 1

            def ops(self):
                yield MmapOp("r", 1)
                yield AccessOp("r", 5)

        sim = Simulation(small_platform())
        run = sim.add_workload(Broken("broken"))
        with pytest.raises(SimulationError):
            sim.run_until_finished(run)

    @pytest.mark.parametrize(
        "free, span",
        [
            (FreeOp("a", 0, 100), "0..100"),  # would unmap region b too
            (FreeOp("a", -2, 4), "-2..2"),  # would cut below region a
            (FreeOp("a", 12), "12..end"),  # starts past region a
        ],
        ids=["past-end", "below-start", "start-past-end"],
    )
    def test_free_beyond_region_raises(self, free, span):
        script = [
            MmapOp("a", 8),
            MmapOp("b", 8),
            AccessOp("b", 0, write=True),
            free,
            AccessOp("b", 7),
        ]
        sim = Simulation(small_platform())
        run = sim.add_workload(ScriptedWorkload("freer", script))
        with pytest.raises(
            SimulationError,
            match=rf"^freer: free of pages {span} outside region 'a' "
            r"\(8 pages\)$",
        ):
            sim.run_until_finished(run)

    @pytest.mark.parametrize("mode", ["batched", "reference"])
    @pytest.mark.parametrize(
        "rebind, kind",
        [(MmapOp("a", 4), "mmap"), (BrkOp("a", 4), "brk")],
        ids=["mmap", "brk"],
    )
    def test_rebinding_live_region_raises(self, monkeypatch, mode, rebind, kind):
        # Rebinding would leave the first VMA mapped but unreachable.
        if mode == "reference":
            monkeypatch.setenv(NO_FASTPATH_ENV, "1")
        else:
            monkeypatch.delenv(NO_FASTPATH_ENV, raising=False)
        script = [MmapOp("a", 8), AccessOp("a", 0, write=True), rebind]
        sim = Simulation(small_platform())
        run = sim.add_workload(ScriptedWorkload("remapper", script))
        with pytest.raises(
            SimulationError, match=rf"^remapper: {kind} of live region 'a'$"
        ):
            sim.run_until_finished(run)


class TestColocationEffects:
    def test_colocation_fragments_host_pt(self):
        def fragmentation(colocated):
            sim = Simulation(small_platform())
            sim.scheduler.ops_per_slice = 2
            if colocated:
                co = sim.add_workload(StressNg(seed=1), weight=4)
                co.fast_forward = True
                for _ in range(300):
                    sim.turn()
            bench = sim.add_workload(PageRank(seed=0, scale=0.2))
            sim.run_until_finished(bench)
            from repro.metrics.fragmentation import host_pt_fragmentation

            return host_pt_fragmentation(bench.process)

        isolated = fragmentation(False)
        colocated = fragmentation(True)
        assert colocated > isolated + 1.0

    def test_ptemagnet_pins_fragmentation_to_one(self):
        sim = Simulation(small_platform(ptemagnet_enabled=True))
        sim.scheduler.ops_per_slice = 2
        co = sim.add_workload(StressNg(seed=1), weight=4)
        co.fast_forward = True
        for _ in range(300):
            sim.turn()
        bench = sim.add_workload(PageRank(seed=0, scale=0.2))
        sim.run_until_finished(bench)
        from repro.metrics.fragmentation import host_pt_fragmentation

        assert host_pt_fragmentation(bench.process) == pytest.approx(1.0)

    def test_deterministic_given_seed(self):
        def run_once():
            sim = Simulation(small_platform())
            run = sim.add_workload(TinyWorkload(npages=16, repeat=2))
            sim.run_until_phase(run, WorkloadPhase.COMPUTE)
            run.start_measurement()
            sim.run_until_finished(run)
            return sim.result_for(run).counters.cycles

        assert run_once() == run_once()
