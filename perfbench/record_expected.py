"""Regenerate ``expected.json``: every workload's simulated statistics at
the shipped seeds, which later runs must reproduce exactly.

Run from the repository root (about ten minutes on a 2-core machine)::

    python3 perfbench/record_expected.py

Only re-record after a change that is meant to alter the simulated model;
a change that only speeds up the simulator must leave the file as it is.
"""

import json
import sys

from run import ROOT, WORKLOADS, engine_mode_problems

#: The seeds whose statistics ship; the file is always rewritten whole.
SHIPPED_SEEDS = range(10)


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from cells import run_cell
    from checks import EXPECTED_PATH, check_cell, simulated_summary

    problems = engine_mode_problems()
    if problems:
        print("refusing to record: " + "; ".join(problems), file=sys.stderr)
        return 3
    expected = {}
    for workload in WORKLOADS:
        for seed in SHIPPED_SEEDS:
            cell = run_cell(workload, seed)
            problems = check_cell(cell, None)
            if problems:
                print(f"{workload} seed {seed} fails its checks: {problems}",
                      file=sys.stderr)
                return 1
            print(simulated_summary(cell), flush=True)
            expected.setdefault(workload, {})[str(seed)] = {
                half.kernel: half.stats for half in cell.halves
            }
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
