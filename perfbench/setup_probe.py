"""Time the benchmark's imports once in a fresh interpreter.

``run.py`` starts a few of these to sample its set-up time more than
once per run; it prints the seconds from its first line to the program
being imported, as ``run.py`` measures them for itself.
"""

import time

_STARTED = time.perf_counter()

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402,F401  (the benchmark's own standard-library imports)
import cells  # noqa: E402,F401  (imports the program)
import checks  # noqa: E402,F401

print(time.perf_counter() - _STARTED)
