"""Self-tests of the benchmark (not of the simulator).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import re
import sys
from argparse import Namespace
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import cells  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from repro.config import PlatformConfig  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _half(kernel, **stats):
    base = {
        "cycles": 1000, "accesses": 10, "tlb_misses": 2, "walk_cycles": 50,
        "host_walk_cycles": 20, "faults": 0, "faults_total": 9,
        "host_pt_fragmentation": 1.0, "bench_ops": 100,
    }
    base.update(stats)
    return cells.Half(kernel, base, 100, 0.0, 1.0, array("q"), {})


def _colo_cell(seed=1):
    cell = cells.Cell("colo-walk", seed)
    cell.halves = [
        _half("default", host_pt_fragmentation=5.0),
        _half("ptemagnet", cycles=960),
    ]
    return cell


# --------------------------------------------------------------------- #
# Self-time arithmetic
# --------------------------------------------------------------------- #


def test_self_time_subtracts_direct_children_only():
    # root [0,10] > a [1,4], b [5,9] > c [6,7]; second root d [11,12]
    parents = [-1, 0, 0, 2, -1]
    starts = [0.0, 1.0, 5.0, 6.0, 11.0]
    ends = [10.0, 4.0, 9.0, 7.0, 12.0]
    durations, self_times = layers.self_time_arrays(parents, starts, ends)
    assert list(durations) == [10.0, 3.0, 4.0, 1.0, 1.0]
    assert list(self_times) == [3.0, 3.0, 3.0, 1.0, 1.0]
    # Self times partition the root spans' wall time.
    assert sum(self_times) == 11.0


def test_recorder_totals_per_name_from_nested_wrappers():
    rec = layers.SpanRecorder()
    inner = rec.wrap(lambda: 7, "cache.inner", tally=lambda result: result)
    outer = rec.wrap(lambda: inner() + inner(), "virt.outer")
    assert outer() == 14
    rec.reduce("cell")
    assert rec.count("virt.outer") == 1
    assert rec.count("cache.inner") == 2
    assert rec.tallies["cache.inner"] == 14
    count, self_s, incl_s = rec.totals["virt.outer"]
    inner_incl = rec.totals["cache.inner"][2]
    assert self_s == pytest.approx(incl_s - inner_incl)
    assert len(rec.events) == 3 and not len(rec.ids)


def test_reduce_refuses_open_spans():
    rec = layers.SpanRecorder()
    rec.stack.append(0)
    with pytest.raises(RuntimeError):
        rec.reduce("cell")


# --------------------------------------------------------------------- #
# Correctness check
# --------------------------------------------------------------------- #


def test_check_passes_matching_cell_and_flags_perturbed_statistic():
    cell = _colo_cell()
    expected = {h.kernel: dict(h.stats) for h in cell.halves}
    assert checks.check_cell(cell, expected) == []
    perturbed = copy.deepcopy(expected)
    perturbed["ptemagnet"]["walk_cycles"] += 1
    problems = checks.check_cell(cell, perturbed)
    assert len(problems) == 1 and "ptemagnet.walk_cycles" in problems[0]


def test_paper_shape_checks_flag_each_violation():
    cell = _colo_cell()
    cell.half("ptemagnet").stats["host_pt_fragmentation"] = 1.5
    cell.half("default").stats["host_pt_fragmentation"] = 1.5
    cell.half("ptemagnet").stats["cycles"] = 1000
    cell.half("ptemagnet").stats["bench_ops"] = 99
    problems = checks.check_cell(cell, None)
    assert len(problems) == 4


def test_seed0_colo_walk_must_equal_figure6_baseline():
    cell = _colo_cell(seed=0)
    problems = checks.check_cell(cell, None)
    assert any("figure6" in p for p in problems)


def test_raising_cells_are_reported_as_failed(monkeypatch, tmp_path, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(cells, "run_cell", broken)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", "solo-hit"]) == run.EXIT_NO_CELL
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == 1
    assert list(result["metrics"]) == ["pass_rate"]


def test_cell_count_depends_on_workload_and_seconds_only():
    for workload, cell_seconds in run.CELL_SECONDS.items():
        assert run.cells_per_run(workload, 0) == run.MIN_CELLS
        assert run.cells_per_run(workload, SPEC["run_seconds"]) == run.MIN_CELLS
        assert run.cells_per_run(workload, 4 * cell_seconds) == 4


def _timed_half(turn_ns, run_s):
    half = _half("default")
    half.turn_ns = array("q", turn_ns)
    half.run_s = run_s
    return half


def test_steady_half_takes_upper_and_lower_median_per_turn():
    # Turn 0 is slow in one repeat only, turn 1 in two of three.
    repeats = [
        _timed_half([1000, 5000], 1.0),
        _timed_half([9000, 6000], 1.0),
        _timed_half([2000, 4000], 2.0),
    ]
    slow, fast, host_s = run.steady_half(repeats)
    assert list(slow) == list(fast) == [2.0, 5.0]
    # Between turns: the median repeat, 1.0 s minus its 6000 ns of turns.
    assert host_s == pytest.approx(7000e-9 + 1.0 - 6000e-9)
    slow, fast, _ = run.steady_half(repeats[:2])
    assert list(slow) == [9.0, 6.0] and list(fast) == [1.0, 5.0]


@pytest.mark.parametrize("variable", run.ENGINE_ENV)
def test_refuses_to_measure_another_engine_mode(variable, monkeypatch):
    monkeypatch.setenv(variable, "1")
    assert run.main(["--workload", "solo-hit"]) == run.EXIT_WRONG_MODE


# --------------------------------------------------------------------- #
# Seed feeds the generated inputs
# --------------------------------------------------------------------- #


class _Built(Exception):
    pass


def _workloads_at(workload, seed):
    """The workloads a scenario has constructed when its first turn starts."""
    def mark_built(sim):
        raise _Built(sim)

    try:
        cells.SCENARIOS[workload](PlatformConfig(), seed, mark_built)
    except _Built as built:
        return [r.workload for r in built.args[0].runs]
    raise AssertionError("scenario never reached its first turn")


def _first_chunks(workload, count=4):
    chunks = workload.ops_batched()
    return [
        (list(chunk.pages), list(chunk.blocks), repr(chunk.tail))
        for chunk, _ in zip(chunks, range(count))
    ]


@pytest.mark.parametrize("workload", sorted(cells.SCENARIOS))
def test_seed_changes_generated_inputs(workload):
    zero = _workloads_at(workload, 0)
    again = _workloads_at(workload, 0)
    one = _workloads_at(workload, 1)
    assert [w.seed for w in zero] == [0] * len(zero)
    assert [w.seed for w in one] == [1] * len(one)
    streams = [
        [_first_chunks(w, 64) for w in ws] for ws in (zero, again, one)
    ]
    assert streams[0] == streams[1]
    assert streams[0] != streams[2]


# --------------------------------------------------------------------- #
# Metric names and wrapper restoration (on a shortened solo-hit cell)
# --------------------------------------------------------------------- #


def test_benchmark_json_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.fixture
def short_solo(monkeypatch):
    monkeypatch.setattr(cells, "SOLO_ACCESSES", 5_000)
    return Namespace(workload="solo-hit", seed=3, seconds=0.0, trace=0)


def test_end_to_end_metrics_match_benchmark_json(short_solo):
    tally = run.Tally({})
    metrics = run.measure(short_solo, tally, import_s=0.1)
    assert tally.attempted == run.MIN_CELLS and tally.failed == 0
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        value, unit = metrics[spec["name"]]
        assert unit == spec["unit"] and value > 0


def test_traced_run_restores_every_wrapper(short_solo, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    before = layers.wrapped_attributes()
    with layers.LayerTracer():
        during = layers.wrapped_attributes()
        assert all(a[2] is not b[2] for a, b in zip(before, during))
    assert all(a[2] is b[2] for a, b in zip(before, layers.wrapped_attributes()))

    tally = run.Tally({})
    metrics = run.measure_layers(short_solo, tally, import_s=0.1)
    assert tally.attempted == 2 and tally.failed == 0
    after = layers.wrapped_attributes()
    assert len(after) == len(before)
    assert all(a[2] is b[2] for a, b in zip(before, after))
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]][1] == spec["unit"]
    assert metrics["sim.turns"][0] > 0 and metrics["trace.spans"][0] > 0
    trace = json.loads((tmp_path / "trace-solo-hit-s3.json").read_text())
    assert trace["traceEvents"][0]["ph"] == "X"
