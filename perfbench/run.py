"""Benchmark of the PTEMagnet simulator: host throughput, turn latency,
set-up time and memory on three paired paper cells.

Usage (from the repository root)::

    python3 perfbench/run.py --workload colo-walk --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the engine's default (batched) mode with tracing
and profiling off and prints the end-to-end metrics. ``--trace 1`` runs
one untraced cell and one cell with every layer wrapped in spans, and
prints the per-layer metrics. Either way the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` (cells)
and ``metrics`` (name -> value and unit). See ``perfbench/README.md``.
"""

import time

_STARTED = time.perf_counter()

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("colo-walk", "solo-hit", "alloc-churn")
#: Each selects a different engine than the default batched mode.
ENGINE_ENV = (
    "REPRO_NO_BATCH", "REPRO_NO_FASTPATH", "REPRO_SANITIZE", "REPRO_INVARIANTS",
)
#: Exit codes: the program could not be imported / the engine mode is not
#: the measured one / a cell the metrics need raised.
EXIT_NO_PROGRAM, EXIT_WRONG_MODE, EXIT_NO_CELL = 2, 3, 4
#: Host seconds of one cell on a shared 2-vCPU VM at its usual (slower)
#: speed. An end-to-end run makes as many cells as fit in ``--seconds``,
#: and at least MIN_CELLS.
CELL_SECONDS = {"colo-walk": 25.0, "solo-hit": 12.0, "alloc-churn": 13.0}
MIN_CELLS = 2
#: Fresh interpreters that time the benchmark's imports after each half.
PROBES_PER_HALF = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def engine_mode_problems():
    """Reasons the current process would not measure the default engine."""
    from repro.obs.profile import PROFILER
    from repro.obs.trace import TRACER

    problems = [f"{name} is set" for name in ENGINE_ENV if os.environ.get(name)]
    if TRACER.active:
        problems.append("repro.obs.trace.TRACER is active")
    if PROFILER.enabled:
        problems.append("repro.obs.profile.PROFILER is enabled")
    return problems


def git_revision(root):
    """The checkout's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(ROOT),
    }


class GcPauses:
    """Host time the cyclic garbage collector held the interpreter."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._began = None

    def __call__(self, phase, info):
        if phase == "start":
            self._began = time.perf_counter()
        elif self._began is not None:
            self.seconds += time.perf_counter() - self._began
            self.collections += 1
            self._began = None

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


class Tally:
    """Attempted/failed cells plus the completed ones, checked as they end."""

    def __init__(self, shipped):
        self.shipped = shipped
        self.cells = []
        self.attempted = 0
        self.failed = 0

    def run(self, workload, seed, after_half=None):
        """Run and check one cell; returns it, or None if it raised."""
        from cells import run_cell
        from checks import check_cell, simulated_summary

        self.attempted += 1
        try:
            cell = run_cell(workload, seed, after_half)
        except Exception:  # a raising cell is a failed cell, reported
            traceback.print_exc()
            self.failed += 1
            return None
        # Without shipped values, repeats of a seed must reproduce the first.
        expected = self.shipped.get(workload, {}).get(str(seed))
        if expected is None and self.cells:
            expected = {h.kernel: h.stats for h in self.cells[0].halves}
        problems = check_cell(cell, expected)
        for problem in problems:
            print(f"CHECK FAILED {workload} seed {seed}: {problem}")
        self.failed += bool(problems)
        print(simulated_summary(cell))
        self.cells.append(cell)
        return cell

    @property
    def halves(self):
        return [half for cell in self.cells for half in cell.halves]


def ops_per_s(halves):
    return sum(h.ops for h in halves) / sum(h.run_s for h in halves)


def cells_per_run(workload, seconds):
    """Cells an end-to-end run makes. It depends on the workload and
    ``--seconds`` only, not on host speed, so every run pools the same
    amount of work."""
    return max(MIN_CELLS, int(seconds // CELL_SECONDS[workload]))


class ImportProbe:
    """Samples of the benchmark's import time: this process's own, then
    :data:`PROBES_PER_HALF` fresh interpreters (``setup_probe.py``) per
    call. Called after each half, so the samples spread over the whole
    run and their median is the host's usual speed. (The first import in
    a fresh checkout also compiles bytecode; the median drops that sample
    too.)"""

    def __init__(self, in_process):
        self.samples = [in_process]

    def __call__(self, half=None):
        for _ in range(PROBES_PER_HALF):
            probe = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py")],
                capture_output=True, text=True, check=True, timeout=120,
            )
            self.samples.append(float(probe.stdout.split()[-1]))

    @property
    def seconds(self):
        return statistics.median(self.samples)


def steady_half(repeats):
    """One half's per-turn host times across ``repeats``: the same half in
    every cell, which runs the same turns in the same order.

    Returns (slow, fast, host seconds). ``slow`` is each turn's upper
    median across the repeats and ``fast`` its lower median; with two
    repeats, the slower and the faster of its two times. Host seconds
    are the sum of ``slow`` plus the median time a repeat spent between
    turns (probes, the measured result).
    """
    import numpy as np

    turns = min(len(h.turn_ns) for h in repeats)
    times = np.array(
        [np.frombuffer(h.turn_ns, dtype=np.int64)[:turns] for h in repeats]
    )
    between = statistics.median(
        h.run_s - t.sum() / 1e9 for h, t in zip(repeats, times)
    )
    times.sort(axis=0)
    slow = times[len(repeats) // 2]
    fast = times[(len(repeats) - 1) // 2]
    return slow / 1e3, fast / 1e3, slow.sum() / 1e9 + between


def measure(args, tally, import_s):
    """End-to-end metrics over :func:`cells_per_run` cells.

    Every cell does the same simulated work turn for turn, so each turn
    is timed once per cell (:func:`steady_half`). A shared host changes
    speed for tens of seconds at a time and spends most of its time at
    the slower speed. Throughput and the median take each turn's upper
    median across the cells: a turn counts as fast only if it was fast in
    at least half of them. The tail takes each turn's lower median: a turn
    counts as slow only if it was slow in at least half of them, so a
    burst of host interference that hits one repeat stays out of it.
    """
    import numpy as np

    probe = ImportProbe(import_s)
    for _ in range(cells_per_run(args.workload, args.seconds)):
        if tally.run(args.workload, args.seed, after_half=probe) is None:
            break
    if not tally.cells:
        return None
    first = tally.cells[0].halves
    steady = [
        steady_half([cell.halves[i] for cell in tally.cells])
        for i in range(len(first))
    ]
    slow_us = np.concatenate([slow for slow, _, _ in steady])
    fast_us = np.concatenate([fast for _, fast, _ in steady])
    host_s = sum(seconds for _, _, seconds in steady)
    print(f"turns timed: {len(slow_us)} per cell, {len(tally.cells)} cell(s)")
    return {
        "ops_per_s": (sum(h.ops for h in first) / host_s, "ops/s"),
        "turn_us_p50": (float(np.percentile(slow_us, 50)), "us"),
        "turn_us_p999": (float(np.percentile(fast_us, 99.9)), "us"),
        "setup_s": (
            probe.seconds + statistics.median(h.build_s for h in tally.halves),
            "s",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "pass_rate": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }


def _ratio(useful, attempted):
    return useful / attempted if attempted else 0.0


def measure_layers(args, tally, import_s):
    """Per-layer metrics: one untraced cell, then one traced cell."""
    from layers import LayerTracer

    probe = ImportProbe(import_s)
    with GcPauses() as pauses:
        if tally.run(args.workload, args.seed, after_half=probe) is None:
            return None
    untraced = tally.halves
    with LayerTracer() as tracer:
        rec = tracer.recorder
        traced_cell = tally.run(
            args.workload, args.seed,
            after_half=lambda half: rec.reduce(f"{args.workload}/{half.kernel}"),
        )
    if traced_cell is None:
        return None
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{args.workload}-s{args.seed}.json"
    rec.write_chrome_trace(str(trace_path))
    print(f"chrome trace: {trace_path}")
    traced = traced_cell.halves
    counts = {}
    for half in traced:
        for key, value in half.counts.items():
            counts[key] = counts.get(key, 0) + value
    chunks = rec.count("workloads.chunk")
    walks = rec.count("virt.walk")
    untraced_rate = ops_per_s(untraced)
    traced_rate = ops_per_s(traced)
    s, n, r = "s", "count", "ratio"
    return {
        "sim.self_s": (rec.self_seconds("sim."), s),
        "sim.turns": (counts["sim.turns"], n),
        "workloads.self_s": (rec.self_seconds("workloads."), s),
        "workloads.chunks": (chunks, n),
        "workloads.ops_per_chunk": (
            _ratio(rec.tallies["workloads.chunk"], chunks), "ops/chunk"
        ),
        "tlb.self_s": (rec.self_seconds("tlb."), s),
        "tlb.lookups": (counts["tlb.lookups"], n),
        "tlb.miss_ratio": (_ratio(counts["tlb.misses"], counts["tlb.lookups"]), r),
        "virt.self_s": (rec.self_seconds("virt."), s),
        "virt.walk_s": (rec.self_seconds("virt.walk"), s),
        "virt.walks": (walks, n),
        "virt.refs_per_walk": (_ratio(rec.tallies["virt.walk"], walks), "refs/walk"),
        "virt.backing_s": (rec.self_seconds("virt.backing"), s),
        "virt.ept_faults": (counts["virt.ept_faults"], n),
        "pagetable.self_s": (rec.self_seconds("pagetable."), s),
        "pagetable.calls": (
            sum(rec.count(name) for name in rec.totals
                if name.startswith("pagetable.")), n
        ),
        "cache.self_s": (rec.self_seconds("cache."), s),
        "cache.accesses.data": (counts["cache.accesses.data"], n),
        "cache.accesses.gpt": (counts["cache.accesses.gpt"], n),
        "cache.accesses.hpt": (counts["cache.accesses.hpt"], n),
        "cache.hpt_mem_ratio": (
            _ratio(counts["cache.memory.hpt"], counts["cache.accesses.hpt"]), r
        ),
        "cache.data_l1_hit_ratio": (
            _ratio(counts["cache.l1.data"], counts["cache.accesses.data"]), r
        ),
        "cache.pwc_lookups": (counts["cache.pwc_lookups"], n),
        "cache.pwc_hit_ratio": (
            _ratio(counts["cache.pwc_hits"], counts["cache.pwc_lookups"]), r
        ),
        "os.self_s": (rec.self_seconds("os."), s),
        "os.fault_s": (rec.self_seconds("os.fault"), s),
        "os.faults": (counts["os.faults"], n),
        "os.munmap_s": (rec.self_seconds("os.munmap"), s),
        "os.pages_freed": (counts["os.pages_freed"], n),
        "os.reclaim_s": (rec.self_seconds("os.reclaim"), s),
        "core.self_s": (rec.self_seconds("core."), s),
        "core.faults": (counts["core.faults"], n),
        "core.reservation_hit_ratio": (
            _ratio(counts["core.reservation_hits"], counts["core.faults"]), r
        ),
        "core.part_lock_acquisitions": (counts["core.part_lock_acquisitions"], n),
        "mem.self_s": (rec.self_seconds("mem."), s),
        "mem.buddy_allocs": (counts["mem.buddy_allocs"], n),
        "mem.buddy_frees": (counts["mem.buddy_frees"], n),
        "mem.coalesces": (counts["mem.coalesces"], n),
        "metrics.finalize_s": (rec.self_seconds("metrics."), s),
        "runtime.gc_pause_s": (pauses.seconds, s),
        "runtime.gc_collections": (pauses.collections, n),
        "setup.import_s": (probe.seconds, s),
        "setup.build_s": (statistics.median(h.build_s for h in untraced), s),
        "trace.total_s": (sum(total[1] for total in rec.totals.values()), s),
        "trace.spans": (sum(int(total[0]) for total in rec.totals.values()), n),
        "trace.ops_per_s_untraced": (untraced_rate, "ops/s"),
        "trace.ops_per_s_traced": (traced_rate, "ops/s"),
        "trace.slowdown": (untraced_rate / traced_rate, "x"),
    }


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import cells  # noqa: F401  (imports the program)
        from checks import load_expected
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if args.trace:
        import layers  # noqa: F401
    import_s = time.perf_counter() - _STARTED
    problems = engine_mode_problems()
    if problems:
        print("perfbench: refusing to measure: " + "; ".join(problems),
              file=sys.stderr)
        return EXIT_WRONG_MODE
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    tally = Tally(load_expected())
    collect = measure_layers if args.trace else measure
    metrics = collect(args, tally, import_s)
    complete = metrics is not None
    if not complete:
        # A cell the metrics need raised: report the cells, with no timing.
        print("perfbench: a cell raised before the metrics were complete",
              file=sys.stderr)
        metrics = {} if args.trace else {"pass_rate": (0.0, "ratio")}
    result = {
        "correct": complete and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, environment=env,
                  cells=[{h.kernel: dict(stats=h.stats, ops=h.ops, run_s=h.run_s,
                                         build_s=h.build_s, turns=len(h.turn_ns))
                          for h in c.halves}
                         for c in tally.cells])
    record_path = OUT_DIR / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if complete else EXIT_NO_CELL


if __name__ == "__main__":
    sys.exit(main())
