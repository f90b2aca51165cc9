"""The batched engine core, measured: >= 5x over the reference engine.

On a figure6-shaped colocated run whose measured window sits in the
TLB-hit/L1-hit regime, the default engine (the batched core resolving
packed chunks against the translation mirror, :mod:`repro.sim.fastpath`)
must deliver at least 5x application ops/sec over the
``REPRO_NO_FASTPATH=1`` reference engine -- while producing a
byte-identical metrics snapshot, because the engine is an
implementation detail of the simulator, never a model change.

Methodology:

* The scenario mirrors figure6's colocation recipe (objdet co-runner at
  weight 2, pre-churned memory, warm-up turns, then a measured window),
  with the benchmark workload tuned into the batched core's target
  regime: a 28-page footprint fits the 32-entry L1 DTLB so nearly every
  access is a translation-mirror hit, and one hot block per page keeps
  the data side in the L1.
* The measured window raises ``ops_per_slice`` to 512. With the
  co-runners stopped, the default kernel runs no reclaim daemon and no
  samplers between slices, so slice size has zero model-visible effect;
  the larger slice only removes scheduler-rotation overhead that would
  otherwise dilute the per-access comparison identically in both modes.
* Rates are best-of-``REPEATS`` with the mode order alternating each
  repeat, so thermal and scheduler drift cannot systematically favour
  either mode.

Record fresh numbers in EXPERIMENTS.md after relevant engine changes:

    PYTHONPATH=src python -m pytest benchmarks/test_speedup.py -s
"""

import json
import os
import time

from conftest import emit_snapshots

from repro.config import PlatformConfig
from repro.experiments.common import OPS_PER_SLICE, PRECHURN_TURNS, WARMUP_TURNS
from repro.metrics.collect import snapshot_simulation
from repro.metrics.registry import REGISTRY, MetricsSnapshot
from repro.metrics.report import Table
from repro.sim.fastpath import NO_FASTPATH_ENV
from repro.workloads.base import WorkloadPhase
from repro.workloads.registry import make_corunner
from repro.workloads.spec import LowPressureSpec

MIN_SPEEDUP = 5.0
REPEATS = 3
ACCESSES = 150_000
#: Pages; fits the 32-entry L1 DTLB, so the window is all mirror hits.
FOOTPRINT = 28
#: One hot block per page keeps the data side in the L1 as well.
HOT_BLOCKS = 1
MEASURED_SLICE = 512


def _run(reference):
    """One full scenario run; returns (ops/sec, snapshot document)."""
    saved = os.environ.get(NO_FASTPATH_ENV)
    if reference:
        os.environ[NO_FASTPATH_ENV] = "1"
    else:
        os.environ.pop(NO_FASTPATH_ENV, None)
    try:
        from repro.sim.engine import Simulation

        sim = Simulation(PlatformConfig())
        sim.scheduler.ops_per_slice = OPS_PER_SLICE
        corunner = sim.add_workload(make_corunner("objdet", 0), weight=2)
        corunner.fast_forward = True
        for _ in range(PRECHURN_TURNS):
            sim.turn()
        bench = sim.add_workload(
            LowPressureSpec(
                "leela",
                0,
                accesses=ACCESSES,
                footprint=FOOTPRINT,
                hot_blocks=HOT_BLOCKS,
            )
        )
        bench.fast_forward = True
        sim.run_until_phase(bench, WorkloadPhase.COMPUTE)
        bench.fast_forward = False
        sim.stop(corunner)
        for _ in range(WARMUP_TURNS):
            sim.turn()
        sim.scheduler.ops_per_slice = MEASURED_SLICE
        bench.start_measurement()
        ops_before = bench.ops_executed
        started = time.perf_counter()
        sim.run_until_finished(bench)
        elapsed = time.perf_counter() - started
        rate = (bench.ops_executed - ops_before) / elapsed
        result = sim.result_for(bench)
        snapshot = snapshot_simulation("bench", sim, result)
        return rate, snapshot.to_dict()
    finally:
        if saved is None:
            os.environ.pop(NO_FASTPATH_ENV, None)
        else:
            os.environ[NO_FASTPATH_ENV] = saved


def test_batch_speedup_with_identical_snapshots():
    best = {False: 0.0, True: 0.0}
    docs = {}
    order = [True, False]
    for _ in range(REPEATS):
        order = order[::-1]
        for reference in order:
            rate, doc = _run(reference)
            best[reference] = max(best[reference], rate)
            docs[reference] = doc

    # Identity gate first: speed means nothing if the model diverged.
    batched_doc = json.dumps(docs[False], indent=2, sort_keys=True)
    reference_doc = json.dumps(docs[True], indent=2, sort_keys=True)
    assert batched_doc == reference_doc, (
        "batched engine changed the modelled outcome vs the reference "
        "engine; run python -m repro.obs diff on the two snapshots"
    )

    speedup = best[False] / best[True]
    table = Table(
        ["Mode", "ops/sec (best of %d)" % REPEATS],
        title="Batched engine speedup (figure6-shaped window)",
    )
    table.add_row("batched (default)", f"{best[False]:,.0f}")
    table.add_row("REPRO_NO_FASTPATH=1 (reference)", f"{best[True]:,.0f}")
    table.add_row("speedup", f"{speedup:.2f}x")
    print()
    print(table.render())

    # Ledger the measured rates (REPRO_STORE / REPRO_SNAPSHOT_DIR) before
    # gating, so a regressing run still extends the trend history.
    gauges = {
        "bench.batch_ops_per_sec": best[False],
        "bench.reference_ops_per_sec": best[True],
        "bench.batch_vs_reference_speedup": speedup,
    }
    snapshot = MetricsSnapshot("batch_speedup")
    for name in sorted(gauges):
        REGISTRY.gauge(name)
        snapshot.set(name, gauges[name])
    emit_snapshots("batch_speedup", {"batch_speedup": snapshot})

    assert speedup >= MIN_SPEEDUP
