"""Tests for trace save/replay."""

import pytest

from repro import PlatformConfig, Simulation
from repro.config import GuestConfig, HostConfig
from repro.errors import WorkloadError
from repro.sim.fastpath import NO_FASTPATH_ENV
from repro.units import MB
from repro.workloads import PageRank
from repro.workloads.base import AccessOp, BrkOp, FreeOp, MmapOp, PhaseOp, WorkloadPhase
from repro.workloads.trace import (
    TraceWorkload,
    load_trace,
    op_to_record,
    record_to_op,
    save_trace,
)

ALL_OPS = [
    MmapOp("a", 16),
    BrkOp("h", 4),
    PhaseOp(WorkloadPhase.INIT),
    AccessOp("a", 3, 17, True),
    AccessOp("h", 0),
    FreeOp("a", 2, 4),
    FreeOp("h"),
    PhaseOp(WorkloadPhase.DONE),
]


class TestSerialization:
    @pytest.mark.parametrize("op", ALL_OPS)
    def test_roundtrip_each_kind(self, op):
        assert record_to_op(op_to_record(op)) == op

    def test_unknown_record_rejected(self):
        with pytest.raises(WorkloadError):
            record_to_op({"op": "teleport"})

    def test_unserializable_rejected(self):
        with pytest.raises(WorkloadError):
            op_to_record(object())


class TestFileRoundtrip:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "t.jsonl"
        count = save_trace(path, ALL_OPS)
        assert count == len(ALL_OPS)
        assert list(load_trace(path)) == ALL_OPS

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"op": "mmap", "region": "a", "npages": 1}\n\n')
        assert len(list(load_trace(path))) == 1

    def test_bad_json_reported_with_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("not-json\n")
        with pytest.raises(WorkloadError, match=":1:"):
            list(load_trace(path))


class TestTraceWorkload:
    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkloadError):
            TraceWorkload(tmp_path / "absent.jsonl")

    def test_footprint_prescan(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace(path, ALL_OPS)
        workload = TraceWorkload(path)
        assert workload.footprint_pages == 20  # 16 mmap + 4 brk
        assert workload.name == "t"

    def test_frozen_benchmark_replays_identically(self, tmp_path):
        """Freeze a bundled statistical workload, replay it, and check the
        simulation outcome matches the original exactly."""
        path = tmp_path / "pagerank.jsonl"
        original = PageRank(seed=3, scale=0.1)
        save_trace(path, original.ops())
        replay = TraceWorkload(path)

        def run(workload):
            sim = Simulation(
                PlatformConfig(
                    host=HostConfig(memory_bytes=64 * MB),
                    guest=GuestConfig(memory_bytes=32 * MB),
                )
            )
            run = sim.add_workload(workload)
            run.start_measurement()
            sim.run_until_finished(run)
            return sim.result_for(run).counters.cycles

        assert run(original) == run(replay)


#: Malformed lines, each placed on line 3 after a valid mmap and access,
#: with the message its ``path:line`` error must carry.
MALFORMED = [
    (
        '{"op": "access", "region": "a"}',
        "'access' record is missing key 'page'",
    ),
    ("[1, 2]", "expected a JSON object, got list"),
    (
        '{"op": "mmap", "region": "b", "npages": "x"}',
        "'mmap' record has bad 'npages' value 'x'",
    ),
    (
        '{"op": "access", "region": ["a"], "page": 0}',
        "'access' record has bad 'region' value",
    ),
    (
        '{"op": "access", "region": "a", "page": 1.5}',
        "'access' record has bad 'page' value 1.5",
    ),
    (
        '{"op": "access", "region": "a", "page": 1, "write": "false"}',
        "'access' record has bad 'write' value 'false'",
    ),
    ('{"op": "phase", "phase": "lunch"}', "'phase' record has bad 'phase'"),
    ('{"op": ["mmap"]}', "unknown trace record"),
]


class TestMalformedTrace:
    """Bad records fail at the parser with ``path:line`` and the cause,
    identically in both engine modes."""

    def _write(self, tmp_path, bad_line):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"op": "mmap", "region": "a", "npages": 4}\n'
            '{"op": "access", "region": "a", "page": 1}\n'
            f"{bad_line}\n"
        )
        return path

    @pytest.mark.parametrize("bad_line, message", MALFORMED)
    def test_load_trace_names_line_and_cause(
        self, tmp_path, bad_line, message
    ):
        path = self._write(tmp_path, bad_line)
        with pytest.raises(WorkloadError) as info:
            list(load_trace(path))
        assert str(info.value).startswith(f"{path}:3: ")
        assert message in str(info.value)

    @pytest.mark.parametrize("bad_line, message", MALFORMED)
    def test_both_engine_modes_raise_the_same_error(
        self, tmp_path, monkeypatch, bad_line, message
    ):
        path = self._write(tmp_path, bad_line)
        errors = []
        for mode in ("batched", "reference"):
            if mode == "reference":
                monkeypatch.setenv(NO_FASTPATH_ENV, "1")
            else:
                monkeypatch.delenv(NO_FASTPATH_ENV, raising=False)
            sim = Simulation(
                PlatformConfig(
                    host=HostConfig(memory_bytes=64 * MB),
                    guest=GuestConfig(memory_bytes=32 * MB),
                )
            )
            # An explicit footprint skips the pre-scan, so the error
            # comes from the engine's own op stream.
            run = sim.add_workload(TraceWorkload(path, footprint_pages=4))
            with pytest.raises(WorkloadError) as info:
                sim.run_until_finished(run)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"{path}:3: ")
        assert message in errors[0]

    def test_prescan_raises_the_same_error(self, tmp_path):
        path = self._write(tmp_path, MALFORMED[0][0])
        with pytest.raises(WorkloadError, match=r":3: 'access' record"):
            TraceWorkload(path)
