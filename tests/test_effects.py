"""Tests for effect inference and the hot-path rule family.

Covers: per-effect classification fixtures (positive + clean
counterpart for every lattice element), fixed-point convergence through
a recursive call cycle, unknown-callee widening, hot-cone membership
(boundary callees excluded), each ``hotpath-*`` rule end to end,
profile-guided ranking order, the ``--baseline``/``--fail-on-new``
findings ratchet, the upgraded ``--list-rules`` output, and the
zero-hotpath-findings enforcement over the real ``src/`` tree
(mirroring ``test_ipa.py``'s program-rule equivalent).
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.lint import RULE_ALIASES, RULES, lint_paths, lint_source
from repro.lint.cli import main as lint_main
from repro.lint.effects import (
    ALLOC,
    GLOBAL_MUTATION,
    IO,
    LATTICE_EFFECTS,
    RAISE,
    RNG,
    TRACE,
    UNKNOWN,
    WALLCLOCK,
    EffectAnalysis,
    classify_call,
    widens,
)
from repro.lint.ipa import Program, Summaries, extract_facts, function_id
from repro.lint.rules.hotpath import HOT_ROOTS, hot_cone, profile_cycles
from repro.obs.profile import ProfileNode

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

HOTPATH_RULES = {
    "hotpath-alloc",
    "hotpath-trace",
    "hotpath-try",
    "hotpath-attr",
    "hotpath-effect",
}


def program_of(sources):
    """``{"repro/sim/engine.py": source, ...}`` -> :class:`Program`."""
    return Program(
        [
            extract_facts(f"src/{path}", ast.parse(text))
            for path, text in sorted(sources.items())
        ]
    )


def effects_of(source: str, qualname: str, module: str = "repro.mod"):
    path = "src/" + module.replace(".", "/") + ".py"
    program = Program([extract_facts(path, ast.parse(source))])
    analysis = EffectAnalysis(program)
    return analysis.effects(function_id(module, qualname))


def hotpath_findings(source: str, path: str, profile=None):
    return [
        finding
        for finding in lint_source(source, path=path, profile=profile)
        if finding.rule in HOTPATH_RULES
    ]


# --------------------------------------------------------------------- #
# Effect classification: one positive + one clean fixture per element
# --------------------------------------------------------------------- #

def test_alloc_literals_comprehensions_and_fstrings():
    source = (
        "def build(xs):\n"
        "    pairs = [(x, x) for x in xs]\n"
        "    label = f'n={len(xs)}'\n"
        "    return {'pairs': pairs, 'label': label}\n"
    )
    assert effects_of(source, "build") == {ALLOC}


def test_arithmetic_only_function_is_pure():
    source = (
        "def mix(vpn, shift):\n"
        "    return (vpn >> shift) ^ (vpn & 7)\n"
    )
    assert effects_of(source, "mix") == frozenset()


def test_global_mutation_on_module_state_only():
    source = (
        "CACHE = {}\n"
        "\n"
        "def remember(key, value):\n"
        "    CACHE[key] = value\n"
        "\n"
        "def local_only(key, value):\n"
        "    table = {}\n"
        "    table[key] = value\n"
        "    return table\n"
    )
    assert effects_of(source, "remember") == {GLOBAL_MUTATION}
    # The same subscript-store shape on a local is not a global mutation.
    assert effects_of(source, "local_only") == {ALLOC}


def test_rng_wallclock_io_raise_and_trace_sites():
    source = (
        "import random\n"
        "import time\n"
        "\n"
        "def draw(rng):\n"
        "    return rng.choice((1, 2))\n"
        "\n"
        "def clock():\n"
        "    return time.perf_counter()\n"
        "\n"
        "def report(x):\n"
        "    print(x)\n"
        "\n"
        "def guard(flag):\n"
        "    if not flag:\n"
        "        raise ValueError\n"
        "    return flag\n"
        "\n"
        "def observe(tp, vpn):\n"
        "    tp.emit(vpn=vpn)\n"
    )
    assert effects_of(source, "draw") == {RNG}
    assert effects_of(source, "clock") == {WALLCLOCK}
    assert effects_of(source, "report") == {IO}
    assert effects_of(source, "guard") == {RAISE}
    assert effects_of(source, "observe") == {TRACE}


def test_effects_propagate_through_resolved_calls():
    source = (
        "def leaf(xs):\n"
        "    return sorted(xs)\n"
        "\n"
        "def trunk(xs):\n"
        "    return leaf(xs)\n"
    )
    assert effects_of(source, "leaf") == {ALLOC}
    assert effects_of(source, "trunk") == {ALLOC}


def test_fixed_point_converges_on_recursive_cycle():
    source = (
        "def ping(n):\n"
        "    if n <= 0:\n"
        "        return 0\n"
        "    return pong(n - 1)\n"
        "\n"
        "def pong(n):\n"
        "    items = [n]\n"
        "    return ping(n - 1)\n"
    )
    assert effects_of(source, "ping") == {ALLOC}
    assert effects_of(source, "pong") == {ALLOC}


def test_unresolved_call_widens_to_unknown():
    source = (
        "def caller(x):\n"
        "    return mystery_helper(x)\n"
        "\n"
        "def tidy(xs):\n"
        "    return len(xs)\n"
    )
    assert UNKNOWN in effects_of(source, "caller")
    assert effects_of(source, "tidy") == frozenset()


def test_classify_call_and_widens_tables():
    assert classify_call("random", "random", ()) == (RNG, "random() random draw")
    assert classify_call("time", "time", ())[0] == WALLCLOCK
    assert classify_call("time", "sim", ()) is None  # sim.time() is modelled
    assert classify_call("emit", "", ("tp",))[0] == TRACE
    assert classify_call("dump", "json", ())[0] == IO
    assert classify_call("dumps", "json", ())[0] == ALLOC
    assert not widens("len")
    assert not widens("__iter__")
    assert not widens("sorted")  # classified as alloc at the site
    assert widens("mystery_helper")
    assert widens("")


def test_effect_analysis_front_end():
    source = (
        "def pure_one(x):\n"
        "    return x + 1\n"
        "\n"
        "def allocs(x):\n"
        "    return [x]\n"
    )
    program = Program([extract_facts("src/repro/mod.py", ast.parse(source))])
    analysis = EffectAnalysis(program)
    assert analysis.pure(function_id("repro.mod", "pure_one"))
    assert not analysis.pure(function_id("repro.mod", "allocs"))
    assert analysis.describe(function_id("repro.mod", "pure_one")) == "pure"
    assert analysis.describe(function_id("repro.mod", "allocs")) == ALLOC
    # Unknown functions default to the widened set.
    assert analysis.effects("repro.mod::nope") == {UNKNOWN}
    assert tuple(LATTICE_EFFECTS[:2]) == (ALLOC, GLOBAL_MUTATION)


# --------------------------------------------------------------------- #
# Hot-cone membership
# --------------------------------------------------------------------- #

ENGINE_FIXTURE = (
    "class WorkloadRun:\n"
    "    def step(self, ops):\n"
    "        for op in ops:\n"
    "            self._fast(op)\n"
    "            self._execute(op)\n"
    "\n"
    "    def _fast(self, op):\n"
    "        return op\n"
    "\n"
    "    def _execute(self, op):\n"
    "        return [op]\n"
)


def test_hot_cone_follows_calls_and_stops_at_boundary():
    program = program_of({"repro/sim/engine.py": ENGINE_FIXTURE})
    cone = hot_cone(program)
    step = function_id("repro.sim.engine", "WorkloadRun.step")
    fast = function_id("repro.sim.engine", "WorkloadRun._fast")
    execute = function_id("repro.sim.engine", "WorkloadRun._execute")
    assert cone[step].name == "engine-access-loop"
    assert cone[fast].name == "engine-access-loop"
    # _execute is a declared boundary: the sanctioned slow path.
    assert execute not in cone


def test_hot_roots_registry_shape():
    names = [root.name for root in HOT_ROOTS]
    assert names == sorted(set(names), key=names.index)  # unique
    for root in HOT_ROOTS:
        assert root.qualnames and root.module.startswith("repro.")


# --------------------------------------------------------------------- #
# Hotpath rules, end to end
# --------------------------------------------------------------------- #

def test_hotpath_alloc_flags_hit_path_allocation():
    findings = hotpath_findings(
        "class WorkloadRun:\n"
        "    def step(self, ops):\n"
        "        out = []\n"
        "        return out\n",
        path="src/repro/sim/engine.py",
    )
    assert [f.rule for f in findings] == ["hotpath-alloc"]
    assert "list literal" in findings[0].message
    assert "engine-access-loop" in findings[0].message


def test_hotpath_alloc_clean_when_allocation_is_outside_cone():
    findings = hotpath_findings(ENGINE_FIXTURE, path="src/repro/sim/engine.py")
    assert findings == []


def test_hotpath_trace_requires_guard():
    unguarded = (
        "class WorkloadRun:\n"
        "    def step(self, tp, ops):\n"
        "        tp.emit(n=ops)\n"
    )
    guarded = (
        "class WorkloadRun:\n"
        "    def step(self, tp, ops):\n"
        "        if tp.enabled:\n"
        "            tp.emit(n=ops)\n"
    )
    path = "src/repro/sim/engine.py"
    assert [f.rule for f in hotpath_findings(unguarded, path)] == [
        "hotpath-trace"
    ]
    assert hotpath_findings(guarded, path) == []


def test_hotpath_try_exempts_stop_iteration_idiom():
    flagged = (
        "class WorkloadRun:\n"
        "    def step(self, ops):\n"
        "        for op in ops:\n"
        "            try:\n"
        "                op()\n"
        "            except KeyError:\n"
        "                pass\n"
    )
    exempt = (
        "class WorkloadRun:\n"
        "    def step(self, stream):\n"
        "        while True:\n"
        "            try:\n"
        "                op = next(stream)\n"
        "            except StopIteration:\n"
        "                break\n"
    )
    path = "src/repro/sim/engine.py"
    findings = hotpath_findings(flagged, path)
    assert [f.rule for f in findings] == ["hotpath-try"]
    assert "KeyError" in findings[0].message
    assert hotpath_findings(exempt, path) == []


def test_hotpath_attr_flags_repeated_chain_and_respects_hoist():
    flagged = (
        "class WorkloadRun:\n"
        "    def step(self, ops):\n"
        "        for op in ops:\n"
        "            self.core.tlb.probe(op)\n"
        "            self.core.tlb.fill(op)\n"
    )
    hoisted = (
        "class WorkloadRun:\n"
        "    def step(self, ops):\n"
        "        tlb = self.core.tlb\n"
        "        for op in ops:\n"
        "            tlb.probe(op)\n"
        "            tlb.fill(op)\n"
    )
    path = "src/repro/sim/engine.py"
    findings = hotpath_findings(flagged, path)
    assert [f.rule for f in findings] == ["hotpath-attr"]
    assert "'self.core.tlb'" in findings[0].message
    assert hotpath_findings(hoisted, path) == []


def test_hotpath_effect_flags_rng_and_module_state():
    source = (
        "import random\n"
        "SEEN = {}\n"
        "\n"
        "class WorkloadRun:\n"
        "    def step(self, ops):\n"
        "        SEEN[ops] = random.random()\n"
    )
    findings = hotpath_findings(source, path="src/repro/sim/engine.py")
    kinds = sorted(f.rule for f in findings)
    assert kinds == ["hotpath-effect", "hotpath-effect"]
    messages = "\n".join(f.message for f in findings)
    assert "RNG draw" in messages
    assert "module-state mutation of 'SEEN'" in messages


def test_hotpath_pragma_suppresses_program_finding():
    source = (
        "class WorkloadRun:\n"
        "    def step(self, ops):\n"
        "        out = []  # simlint: disable=hotpath-alloc\n"
        "        return out\n"
    )
    assert hotpath_findings(source, path="src/repro/sim/engine.py") == []


# --------------------------------------------------------------------- #
# Profile-guided ranking
# --------------------------------------------------------------------- #

PROFILE_TREE = {
    "cycles": 0,
    "count": 0,
    "children": {
        "access": {
            "cycles": 100,
            "count": 10,
            "children": {"data": {"cycles": 40, "count": 4}},
        }
    },
}


def _profiled_fixture(tmp_path):
    engine = tmp_path / "repro" / "sim" / "engine.py"
    cache = tmp_path / "repro" / "cache" / "set_assoc.py"
    engine.parent.mkdir(parents=True)
    cache.parent.mkdir(parents=True)
    engine.write_text(
        "class WorkloadRun:\n"
        "    def step(self, ops):\n"
        "        out = []\n"
        "        return out\n"
    )
    cache.write_text(
        "class SetAssociativeCache:\n"
        "    def access(self, addr):\n"
        "        return [addr]\n"
    )
    return tmp_path


def test_profile_cycles_walks_prefixes():
    profile = ProfileNode.from_dict("root", PROFILE_TREE)
    engine_root = next(r for r in HOT_ROOTS if r.name == "engine-access-loop")
    cache_root = next(r for r in HOT_ROOTS if r.name == "cache-hit-path")
    tlb_root = next(r for r in HOT_ROOTS if r.name == "tlb-hit-path")
    assert profile_cycles(profile, engine_root) == 140
    assert profile_cycles(profile, cache_root) == 40
    assert profile_cycles(profile, tlb_root) == 0  # prefix absent
    assert profile_cycles(None, engine_root) == 0


def test_profile_guided_run_ranks_findings_by_measured_cycles(tmp_path):
    root = _profiled_fixture(tmp_path)
    profile = ProfileNode.from_dict("root", PROFILE_TREE)
    plain = lint_paths([root])
    ranked = lint_paths([root], profile=profile)
    # Location order puts cache/ first; cycle rank reverses that.
    assert [f.path.split("/")[-1] for f in plain] == [
        "set_assoc.py", "engine.py",
    ]
    assert [f.path.split("/")[-1] for f in ranked] == [
        "engine.py", "set_assoc.py",
    ]
    assert [f.cycles for f in ranked] == [140, 40]
    assert ranked[0].share == pytest.approx(1.0)
    assert ranked[1].share == pytest.approx(40 / 140)
    # The annotation rides on render()/to_dict(), not the message (the
    # ratchet keys stay stable across profiles).
    assert "modelled cycles" in ranked[0].render()
    assert "cycles" not in ranked[0].message
    assert ranked[0].to_dict()["cycles"] == 140
    assert "cycles" not in plain[1].to_dict()


def test_profile_guided_output_identical_across_job_counts(tmp_path):
    root = _profiled_fixture(tmp_path)
    profile = ProfileNode.from_dict("root", PROFILE_TREE)
    serial = lint_paths([root], profile=profile)
    fanned = lint_paths([root], jobs=2, profile=profile)
    assert [f.render() for f in serial] == [f.render() for f in fanned]


def test_cli_profile_flag_loads_raw_tree(tmp_path, capsys):
    root = _profiled_fixture(tmp_path)
    tree = tmp_path / "profile.json"
    tree.write_text(json.dumps(PROFILE_TREE))
    assert lint_main([str(root), "--profile", str(tree)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "engine.py" in out[0] and "140 modelled cycles" in out[0]
    assert "set_assoc.py" in out[1]


def test_cli_profile_flag_rejects_profileless_snapshot(tmp_path):
    root = _profiled_fixture(tmp_path)
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"kind": "something-else"}))
    with pytest.raises(SystemExit):
        lint_main([str(root), "--profile", str(bare)])


# --------------------------------------------------------------------- #
# Findings ratchet (--baseline / --fail-on-new)
# --------------------------------------------------------------------- #

def test_baseline_ratchet_records_then_gates_only_new(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("import random\nx = random.random()\n")
    baseline = tmp_path / "lint-baseline.json"

    # Record: exits 0 even though findings exist.
    assert lint_main([str(target), "--baseline", str(baseline)]) == 0
    recorded = json.loads(baseline.read_text())
    assert recorded["version"] == 1
    assert [entry["rule"] for entry in recorded["findings"]] == [
        "global-random"
    ]
    capsys.readouterr()

    # Gate: the recorded finding no longer fails the run.
    assert (
        lint_main(
            [str(target), "--baseline", str(baseline), "--fail-on-new"]
        )
        == 0
    )
    assert "0 findings" in capsys.readouterr().out

    # A new violation still fails, and only it is reported.
    target.write_text(
        "import random\nimport time\n"
        "x = random.random()\ny = time.time()\n"
    )
    assert (
        lint_main(
            [str(target), "--baseline", str(baseline), "--fail-on-new"]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "wall-clock" in out
    assert "global-random" not in out


def test_fail_on_new_requires_baseline(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("x = 1\n")
    with pytest.raises(SystemExit):
        lint_main([str(target), "--fail-on-new"])


def test_committed_baseline_is_empty_and_current():
    """The repo ratchet file exists and records zero accepted findings."""
    payload = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
    assert payload == {"version": 1, "findings": []}


# --------------------------------------------------------------------- #
# --list-rules
# --------------------------------------------------------------------- #

def test_cli_list_rules_sorted_with_kind_and_aliases(capsys, monkeypatch):
    monkeypatch.setitem(RULE_ALIASES, "legacy-coherence", "mirror-coherence")
    assert lint_main(["--list-rules"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = [line.split()[0] for line in lines]
    assert names == sorted(RULES)
    for line in lines:
        assert "[file/" in line or "[program/" in line
    by_name = dict(zip(names, lines))
    assert "aliases: legacy-coherence" in by_name["mirror-coherence"]
    assert "[program/hotpath]" in by_name["hotpath-alloc"]


# --------------------------------------------------------------------- #
# Enforcement over the real tree
# --------------------------------------------------------------------- #

def test_src_tree_has_zero_hotpath_findings():
    findings = [
        finding
        for finding in lint_paths([SRC])
        if finding.rule in HOTPATH_RULES
    ]
    assert findings == [], "\n".join(f.render() for f in findings)
