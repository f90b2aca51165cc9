"""Correctness checks on a cell's simulated statistics.

Simulated statistics are deterministic for a seed, so a cell whose seed
has shipped expected values (``expected.json``) must match them exactly.
Every cell also gets the paper-shape checks, and at seed 0 the colo-walk
improvement must equal the Figure 6 baseline the repository keeps.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from cells import Cell

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
FIGURE6_BASELINE = HERE.parent / "benchmarks" / "baselines" / "figure6.json"

#: The paper's figure for each workload, printed beside the simulated one.
PAPER_REFERENCE = {
    "colo-walk": "Table 4: 7% lower execution time (pagerank + objdet)",
    "solo-hit": "Section 6.1: 0-1% for low-TLB-pressure SPEC, never negative",
    "alloc-churn": "Section 6.2: unmapped reserved pages <= 0.2% of footprint",
}

PTEMAGNET_MAX_FRAGMENTATION = 1.05
#: Colocation scatters the default kernel's page-table groups.
DEFAULT_MIN_FRAGMENTATION = 2.0
SEC62_MAX_OVERHEAD_PERCENT = 0.2
#: The paper's band for low-TLB-pressure benchmarks (Section 6.1).
SOLO_IMPROVEMENT_BAND = (0.0, 1.0)
COLOCATED = ("colo-walk", "alloc-churn")


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Dict[str, dict]]:
    """workload -> seed (as a string) -> kernel -> statistics."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def figure6_pagerank_improvement(path: Path = FIGURE6_BASELINE) -> float:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    return doc["metrics"]["figure6.improvement.pagerank"]["value"]


def sec62_overhead_percent(cell: Cell) -> float:
    """Peak reserved-but-unmapped pages as % of the benchmark footprint."""
    stats = cell.half("ptemagnet").stats
    return stats["peak_unmapped_reserved"] / stats["footprint_pages"] * 100.0


def check_cell(cell: Cell, expected: Optional[Dict[str, dict]]) -> List[str]:
    """Problems found in ``cell``; empty when it passes.

    ``expected`` maps kernel -> statistics the cell must reproduce exactly.
    """
    problems = []
    if expected is not None:
        for half in cell.halves:
            want = expected[half.kernel]
            for key in sorted(set(want) | set(half.stats)):
                got = half.stats.get(key)
                if got != want.get(key):
                    problems.append(
                        f"{half.kernel}.{key} = {got!r}, expected {want.get(key)!r}"
                    )
    default = cell.half("default").stats
    ptemagnet = cell.half("ptemagnet").stats
    if ptemagnet["host_pt_fragmentation"] > PTEMAGNET_MAX_FRAGMENTATION:
        problems.append(
            f"PTEMagnet host-PT fragmentation {ptemagnet['host_pt_fragmentation']}"
            f" > {PTEMAGNET_MAX_FRAGMENTATION}"
        )
    if (
        cell.workload in COLOCATED
        and default["host_pt_fragmentation"] <= DEFAULT_MIN_FRAGMENTATION
    ):
        problems.append(
            f"default host-PT fragmentation {default['host_pt_fragmentation']}"
            f" <= {DEFAULT_MIN_FRAGMENTATION}"
        )
    if default["bench_ops"] != ptemagnet["bench_ops"]:
        problems.append(
            f"benchmark op counts differ: {default['bench_ops']} vs "
            f"{ptemagnet['bench_ops']}"
        )
    improvement = cell.improvement_percent
    if cell.workload == "colo-walk":
        if not improvement > 0:
            problems.append(f"improvement {improvement}% is not positive")
        if cell.seed == 0:
            reference = figure6_pagerank_improvement()
            if improvement != reference:
                problems.append(
                    f"improvement {improvement!r}% differs from the figure6 "
                    f"baseline {reference!r}%"
                )
    if cell.workload == "solo-hit":
        low, high = SOLO_IMPROVEMENT_BAND
        if not low <= improvement <= high:
            problems.append(
                f"improvement {improvement}% outside the paper's {low}-{high}%"
            )
    if cell.workload == "alloc-churn":
        overhead = sec62_overhead_percent(cell)
        if overhead > SEC62_MAX_OVERHEAD_PERCENT:
            problems.append(
                f"Section 6.2 overhead {overhead:.3f}% > "
                f"{SEC62_MAX_OVERHEAD_PERCENT}%"
            )
    return problems


def simulated_summary(cell: Cell) -> str:
    """One line: the simulated result beside the paper's reference."""
    if cell.workload == "alloc-churn":
        simulated = f"peak overhead {sec62_overhead_percent(cell):.3f}%"
    else:
        simulated = f"improvement {cell.improvement_percent:+.3f}%"
    return (
        f"{cell.workload} seed {cell.seed}: simulated {simulated}; "
        f"paper {PAPER_REFERENCE[cell.workload]}"
    )
