"""The repository's benchmark: six workloads, measured from the outside.

``python3 benchmarks/suite/run.py --workload W --seed S --seconds T --trace 0|1``
is the contract entry point (see ``BENCHMARK.json``); ``python -m
benchmarks.suite`` runs every workload and prints one table.  Nothing under
``src/`` is edited: layers are timed by calling (and, in the traced run,
wrapping) their public functions.  ``README.md`` in this directory is the
glossary.

Importing the package puts ``src/`` on ``sys.path`` (the repository is run
uninstalled), so the modules below can import ``repro`` at their top.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SUITE_DIR = Path(__file__).resolve().parent
OUT_DIR = SUITE_DIR / "out"

_SRC = ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
