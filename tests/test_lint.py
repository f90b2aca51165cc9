"""Tests for the simulator-aware static-analysis pass (repro.lint).

Covers: each rule fires on a minimal bad snippet and stays quiet on a
clean equivalent; suppression pragmas (line- and file-level); the JSON
output schema; CLI exit codes; and -- the tier-1 enforcement -- zero
findings over the real ``src/`` tree.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    JSON_SCHEMA_VERSION,
    RULES,
    iter_rules,
    lint_paths,
    lint_source,
)
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Path prefix putting a snippet inside units-rule scope.
MODEL_PATH = "src/repro/mem/snippet.py"
#: Path prefix outside units-rule scope (workload code).
WORKLOAD_PATH = "src/repro/workloads/snippet.py"


def rules_hit(source, path="snippet.py"):
    return [finding.rule for finding in lint_source(source, path=path)]


# ---------------------------------------------------------------------- #
# The tier-1 enforcement: the real tree stays clean forever
# ---------------------------------------------------------------------- #

def test_src_tree_has_zero_findings():
    findings = lint_paths([SRC])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_registry_has_expected_rules():
    names = {rule.name for rule in iter_rules()}
    assert {
        "global-random",
        "wall-clock",
        "set-order",
        "magic-number",
        "address-division",
        "mutable-default",
        "bare-assert",
        "raw-output",
        "tracepoint-naming",
        "metrics-naming",
        "address-flow",
        "mirror-coherence",
        "ipa-address-flow",
        "snapshot-determinism",
        "spawn-safety",
    } <= names
    assert set(RULES) == names


# ---------------------------------------------------------------------- #
# determinism: global-random
# ---------------------------------------------------------------------- #

def test_global_random_flags_module_functions():
    src = "import random\nx = random.randint(0, 5)\n"
    assert rules_hit(src) == ["global-random"]


def test_global_random_flags_from_import():
    src = "from random import shuffle\nshuffle(items)\n"
    assert rules_hit(src) == ["global-random"]


def test_global_random_flags_unseeded_random_instance():
    src = "import random\nrng = random.Random()\n"
    assert rules_hit(src) == ["global-random"]


def test_global_random_allows_seeded_instance():
    src = "import random\nrng = random.Random(7)\nrng.shuffle(items)\n"
    assert rules_hit(src) == []


def test_global_random_ignores_other_modules():
    src = "import numpy as np\nx = np.random.default_rng(1)\n"
    assert rules_hit(src) == []


# ---------------------------------------------------------------------- #
# determinism: wall-clock
# ---------------------------------------------------------------------- #

def test_wall_clock_flags_time_time():
    src = "import time\nstart = time.time()\n"
    assert rules_hit(src) == ["wall-clock"]


def test_wall_clock_flags_from_import_time():
    src = "from time import time\nstart = time()\n"
    assert rules_hit(src) == ["wall-clock"]


def test_wall_clock_flags_datetime_now():
    src = "from datetime import datetime\nstamp = datetime.now()\n"
    assert rules_hit(src) == ["wall-clock"]


def test_wall_clock_flags_datetime_module_chain():
    src = "import datetime\nstamp = datetime.datetime.utcnow()\n"
    assert rules_hit(src) == ["wall-clock"]


def test_wall_clock_allows_perf_counter():
    src = "import time\nstart = time.perf_counter()\n"
    assert rules_hit(src) == []


# ---------------------------------------------------------------------- #
# determinism: set-order
# ---------------------------------------------------------------------- #

def test_set_order_flags_for_loop_over_set_literal():
    src = "for vpn in {1, 2, 3}:\n    handle(vpn)\n"
    assert rules_hit(src) == ["set-order"]


def test_set_order_flags_list_of_set():
    src = "order = list(set(frames))\n"
    assert rules_hit(src) == ["set-order"]


def test_set_order_flags_comprehension_over_set_call():
    src = "out = [f(x) for x in set(items)]\n"
    assert rules_hit(src) == ["set-order"]


def test_set_order_allows_sorted_set():
    src = "for vpn in sorted({3, 1, 2}):\n    handle(vpn)\n"
    assert rules_hit(src) == []


def test_set_order_flags_iteration_over_set_variable():
    src = "pending = set()\nfor frame in pending:\n    free(frame)\n"
    assert rules_hit(src) == ["set-order"]


def test_set_order_flags_comprehension_over_set_variable():
    src = "seen = {1, 2}\nout = [f(x) for x in seen]\n"
    assert rules_hit(src) == ["set-order"]


def test_set_order_flags_annotated_set_variable():
    src = (
        "from typing import Set\n"
        "def f():\n"
        "    live: Set[int] = set()\n"
        "    for frame in live:\n"
        "        free(frame)\n"
    )
    assert rules_hit(src) == ["set-order"]


def test_set_order_allows_rebound_set_variable():
    # Rebinding to a non-set anywhere in the scope clears the inference.
    src = "items = set()\nitems = sorted(items)\nfor x in items:\n    f(x)\n"
    assert rules_hit(src) == []


def test_set_order_allows_sorted_set_variable():
    src = "pending = set()\nfor frame in sorted(pending):\n    free(frame)\n"
    assert rules_hit(src) == []


def test_set_order_parameter_shadows_module_set():
    src = (
        "names = set()\n"
        "def f(names):\n"
        "    for name in names:\n"
        "        g(name)\n"
    )
    assert rules_hit(src) == []


# ---------------------------------------------------------------------- #
# units: magic-number
# ---------------------------------------------------------------------- #

def test_magic_number_flags_page_shift_in_model_code():
    src = "def frame_of(addr):\n    return addr >> 12\n"
    assert rules_hit(src, path=MODEL_PATH) == ["magic-number"]


def test_magic_number_flags_block_mask():
    src = "index = (vpn & 511) * 8\n"
    hits = rules_hit(src, path=MODEL_PATH)
    assert hits == ["magic-number", "magic-number"]


def test_magic_number_quiet_outside_scoped_dirs():
    src = "def frame_of(addr):\n    return addr >> 12\n"
    assert rules_hit(src, path=WORKLOAD_PATH) == []


def test_magic_number_quiet_on_units_constants():
    src = (
        "from repro.units import PAGE_SHIFT\n"
        "def frame_of(addr):\n    return addr >> PAGE_SHIFT\n"
    )
    assert rules_hit(src, path=MODEL_PATH) == []


def test_magic_number_ignores_non_address_scalars():
    src = "latency = cycles * 8\ncount = retries % 64\n"
    assert rules_hit(src, path=MODEL_PATH) == []


# ---------------------------------------------------------------------- #
# address-math: address-division
# ---------------------------------------------------------------------- #

def test_address_division_flags_true_division():
    src = "def mid(frame):\n    return frame / 2\n"
    assert rules_hit(src) == ["address-division"]


def test_address_division_flags_float_cast():
    src = "x = float(base_frame)\n"
    assert rules_hit(src) == ["address-division"]


def test_address_division_allows_floor_division():
    src = "def mid(frame):\n    return frame // 2\n"
    assert rules_hit(src) == []


def test_address_division_allows_count_ratios():
    # Plural tokens name counts, not addresses: ratios are legitimate.
    src = "fraction = free_frames / num_frames\n"
    assert rules_hit(src) == []


# ---------------------------------------------------------------------- #
# address-flow: the gVA/gPA/hPA lattice dataflow pass
# ---------------------------------------------------------------------- #

def test_address_flow_flags_swapped_map_arguments():
    src = "def fault(pt, vpn, frame):\n    pt.map(frame, vpn)\n"
    assert rules_hit(src) == ["address-flow", "address-flow"]


def test_address_flow_allows_correct_map_arguments():
    src = "def fault(pt, vpn, frame):\n    pt.map(vpn, frame)\n"
    assert rules_hit(src) == []


def test_address_flow_host_page_table_signature():
    # host_pt.map takes guest-frame -> host-frame, not vpn -> frame.
    src = "def back(vm, gfn, hfn):\n    vm.host_pt.map(gfn, hfn)\n"
    assert rules_hit(src) == []
    # Without a host-flavoured receiver the guest signature applies: the
    # first argument must be a VPN (hfn still satisfies the generic FRAME).
    src = "def back(pt, gfn, hfn):\n    pt.map(gfn, hfn)\n"
    assert rules_hit(src) == ["address-flow"]


def test_address_flow_flags_cross_space_assignment():
    src = "def f(vpn, frame):\n    vpn = frame\n    return vpn\n"
    assert rules_hit(src) == ["address-flow"]


def test_address_flow_flags_mixed_space_arithmetic():
    src = "def f(vpn, frame):\n    return vpn + frame\n"
    assert rules_hit(src) == ["address-flow"]


def test_address_flow_allows_addr_plus_bytes():
    src = "def f(gva, nbytes):\n    return gva + nbytes\n"
    assert rules_hit(src) == []


def test_address_flow_tracks_shift_conversions():
    src = (
        "from repro.units import PAGE_SHIFT\n"
        "def f(gva):\n"
        "    vpn = gva >> PAGE_SHIFT\n"
        "    return vpn\n"
    )
    assert rules_hit(src) == []
    src = (
        "from repro.units import PAGE_SHIFT\n"
        "def f(gva, frame):\n"
        "    frame = gva >> PAGE_SHIFT\n"
        "    return frame\n"
    )
    assert rules_hit(src) == ["address-flow"]


def test_address_flow_flags_wrong_space_keyword_argument():
    src = "def f(frame):\n    emit(vpn=frame)\n"
    assert rules_hit(src) == ["address-flow"]


def test_address_flow_checks_local_function_signatures():
    src = (
        "def translate(vpn):\n"
        "    return vpn\n"
        "def f(frame):\n"
        "    return translate(frame)\n"
    )
    assert rules_hit(src) == ["address-flow"]


def test_address_flow_skips_test_code():
    src = "def fault(pt, vpn, frame):\n    pt.map(frame, vpn)\n"
    assert rules_hit(src, path="tests/test_x.py") == []


def test_address_flow_pragma_suppression():
    src = (
        "def fault(pt, vpn, frame):\n"
        "    pt.map(frame, vpn)  # simlint: disable=address-flow\n"
    )
    assert rules_hit(src) == []


# ---------------------------------------------------------------------- #
# api-hygiene
# ---------------------------------------------------------------------- #

def test_mutable_default_flags_list_literal():
    src = "def f(xs=[]):\n    return xs\n"
    assert rules_hit(src) == ["mutable-default"]


def test_mutable_default_flags_kwonly_dict_call():
    src = "def f(*, cache=dict()):\n    return cache\n"
    assert rules_hit(src) == ["mutable-default"]


def test_mutable_default_allows_none():
    src = "def f(xs=None):\n    return xs or []\n"
    assert rules_hit(src) == []


def test_bare_assert_flags_library_code():
    src = "def f(x):\n    assert x > 0\n    return x\n"
    assert rules_hit(src, path="src/repro/mem/foo.py") == ["bare-assert"]


def test_bare_assert_allows_test_files():
    src = "def test_f():\n    assert 1 + 1 == 2\n"
    assert rules_hit(src, path="tests/test_foo.py") == []


def test_syntax_error_is_reported_as_finding():
    assert rules_hit("def broken(:\n") == ["syntax-error"]


# ---------------------------------------------------------------------- #
# Suppressions
# ---------------------------------------------------------------------- #

def test_line_pragma_suppresses_only_that_line():
    src = (
        "import time\n"
        "a = time.time()  # simlint: disable=wall-clock\n"
        "b = time.time()\n"
    )
    findings = lint_source(src)
    assert [finding.line for finding in findings] == [3]


def test_file_pragma_suppresses_whole_file():
    src = (
        "# simlint: disable=wall-clock\n"
        "import time\n"
        "a = time.time()\n"
        "b = time.time()\n"
    )
    assert lint_source(src) == []


def test_disable_all_pragma():
    src = "import time\na = time.time()  # simlint: disable=all\n"
    assert lint_source(src) == []


def test_pragma_leaves_other_rules_active():
    src = (
        "# simlint: disable=wall-clock\n"
        "import time, random\n"
        "a = time.time()\n"
        "b = random.random()\n"
    )
    assert [finding.rule for finding in lint_source(src)] == ["global-random"]


# ---------------------------------------------------------------------- #
# CLI and JSON output
# ---------------------------------------------------------------------- #

BAD_SNIPPET = "import time\nstart = time.time()\n"


def test_cli_exit_zero_on_clean_file(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("import time\nstart = time.perf_counter()\n")
    assert lint_main([str(clean)]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_cli_exit_nonzero_on_finding(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SNIPPET)
    assert lint_main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "wall-clock" in out
    assert f"{bad}:2:" in out


def test_cli_json_schema_is_stable(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SNIPPET)
    assert lint_main([str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"version", "findings", "counts"}
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert payload["counts"] == {"wall-clock": 1}
    (finding,) = payload["findings"]
    assert set(finding) == {"path", "line", "col", "rule", "message"}
    assert finding["rule"] == "wall-clock"
    assert finding["line"] == 2


def test_cli_github_format_emits_workflow_commands(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SNIPPET)
    assert lint_main([str(bad), "--format", "github"]) == 1
    out = capsys.readouterr().out
    (annotation, summary) = out.strip().splitlines()
    assert annotation.startswith("::error file=")
    assert ",line=2," in annotation
    assert "title=simlint wall-clock::" in annotation
    assert summary == "simlint: 1 finding"


def test_cli_github_format_escapes_message_payload(tmp_path, capsys):
    from repro.lint.cli import _escape_github_data, _escape_github_property

    assert _escape_github_data("50% done\nnext") == "50%25 done%0Anext"
    assert _escape_github_property("a,b:c%d") == "a%2Cb%3Ac%25d"
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert lint_main([str(clean), "--format", "github"]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_disable_flag(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SNIPPET)
    assert lint_main([str(bad), "--disable", "wall-clock"]) == 0


def test_cli_missing_path_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        lint_main([str(tmp_path / "nope.py")])
    assert excinfo.value.code == 2
    assert "cannot lint" in capsys.readouterr().err


def test_cli_rejects_unknown_disable(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SNIPPET)
    with pytest.raises(SystemExit):
        lint_main([str(bad), "--disable", "no-such-rule"])


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in RULES:
        assert name in out


def test_module_entry_point_detects_seeded_violation(tmp_path):
    """``python -m repro.lint`` exits nonzero on a seeded-in violation."""
    bad = tmp_path / "seeded.py"
    bad.write_text("import random\nx = random.random()\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(bad)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "global-random" in proc.stdout


# ---------------------------------------------------------------------- #
# observability: raw-output
# ---------------------------------------------------------------------- #

def test_raw_output_flags_print_in_library_code():
    src = "def helper(value):\n    print(value)\n"
    assert rules_hit(src) == ["raw-output"]


def test_raw_output_flags_stdlib_logging():
    src = "import logging\n\ndef helper():\n    logging.warning('drift')\n"
    assert rules_hit(src) == ["raw-output"]


def test_raw_output_exempts_cli_files():
    src = "def helper(value):\n    print(value)\n"
    assert rules_hit(src, path="repro/obs/cli.py") == []
    assert rules_hit(src, path="repro/__main__.py") == []
    assert rules_hit(src, path="repro/experiments/runner.py") == []


def test_raw_output_exempts_main_entry_function():
    src = "def main(argv=None):\n    print('usage: ...')\n    return 0\n"
    assert rules_hit(src) == []


def test_raw_output_exempts_test_code():
    src = "def helper(value):\n    print(value)\n"
    assert rules_hit(src, path="tests/test_x.py") == []


# ---------------------------------------------------------------------- #
# observability: tracepoint-naming
# ---------------------------------------------------------------------- #

def test_tracepoint_naming_flags_bad_literal():
    src = "tp = tracepoint('BuddySplit')\n"
    assert rules_hit(src) == ["tracepoint-naming"]


def test_tracepoint_naming_requires_a_dot():
    src = "tp = tracepoint('buddy')\n"
    assert rules_hit(src) == ["tracepoint-naming"]


def test_tracepoint_naming_accepts_dotted_lowercase():
    src = "tp = tracepoint('buddy.split')\n"
    assert rules_hit(src) == []
    src = "tp = TRACER.tracepoint('walk.step')\n"
    assert rules_hit(src) == []


def test_tracepoint_naming_skips_dynamic_names():
    src = "tp = tracepoint('sample.' + token)\n"
    assert rules_hit(src) == []


# ---------------------------------------------------------------------- #
# observability: metrics-naming
# ---------------------------------------------------------------------- #

def test_metrics_naming_flags_bad_counter_literal():
    src = "REGISTRY.counter('WalkCycles')\n"
    assert rules_hit(src) == ["metrics-naming"]


def test_metrics_naming_flags_undotted_gauge_and_histogram():
    src = "REGISTRY.gauge('freepages')\nREGISTRY.histogram('latency')\n"
    assert rules_hit(src) == ["metrics-naming", "metrics-naming"]


def test_metrics_naming_accepts_dotted_lowercase():
    src = (
        "REGISTRY.counter('perf.walk_cycles')\n"
        "registry.gauge('mem.free_pages')\n"
        "histogram('perf.fault_latencies')\n"
    )
    assert rules_hit(src) == []


def test_metrics_naming_skips_dynamic_names():
    src = "REGISTRY.counter('cache.' + stream)\n"
    assert rules_hit(src) == []


def test_metrics_naming_flags_free_floating_extra_keys():
    src = "counters.extra['WalkCycles'] = 1\n"
    assert rules_hit(src) == ["metrics-naming"]
    src = "counters.extra['retries'] += 1\n"
    assert rules_hit(src) == ["metrics-naming"]


def test_metrics_naming_allows_dotted_extra_keys_and_test_code():
    src = "counters.extra['perf.retries'] = 1\n"
    assert rules_hit(src) == []
    src = "counters.extra['retries'] = 1\n"
    assert rules_hit(src, path="tests/test_x.py") == []


# ---------------------------------------------------------------------- #
# correctness: mirror-coherence (ex fastpath-invalidation; see test_ipa
# for the interprocedural cases the old rule could not see)
# ---------------------------------------------------------------------- #

def test_mirror_coherence_flags_unpaired_mutation():
    src = (
        "def do_free(process, vpn):\n"
        "    frame = process.page_table.unmap(vpn)\n"
        "    return frame\n"
    )
    assert rules_hit(src) == ["mirror-coherence"]


def test_mirror_coherence_flags_update_and_unmap_huge():
    src = (
        "def cow_break(process, vpn, frame, flags):\n"
        "    process.page_table.update(vpn, frame, flags)\n"
        "def split(process, vpn):\n"
        "    process.page_table.unmap_huge(vpn)\n"
    )
    assert rules_hit(src) == [
        "mirror-coherence",
        "mirror-coherence",
    ]


def test_mirror_coherence_quiet_when_shootdown_paired():
    src = (
        "def do_free(self, process, vpn):\n"
        "    frame = process.page_table.unmap(vpn)\n"
        "    self._notify_unmap(process.pid, vpn)\n"
        "    return frame\n"
    )
    assert rules_hit(src) == []


def test_mirror_coherence_ignores_fresh_installs_and_host_pt():
    # map()/map_huge() install where nothing was mapped (no stale TLB
    # entry possible); host_pt is the hypervisor's table, out of scope.
    src = (
        "def fault(process, vpn, frame):\n"
        "    process.page_table.map(vpn, frame)\n"
        "def unback(vm, gfn):\n"
        "    vm.host_pt.unmap(gfn)\n"
    )
    assert rules_hit(src) == []


def test_mirror_coherence_skips_test_code():
    src = "def helper(process, vpn):\n    process.page_table.unmap(vpn)\n"
    assert rules_hit(src, path="tests/test_x.py") == []
