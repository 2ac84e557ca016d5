"""A plain run loads neither the process pool nor the lint engine.

``repro.experiments.parallel`` (with ``multiprocessing`` and
``concurrent.futures``) is for sweeps, and ``repro.analysis.engine``
(the AST lint framework) for ``repro lint``.  Importing ``repro`` and
building one simulation must load none of them, so a single run does
not pay their import time and memory.  Checked in a fresh interpreter,
since this one has imported everything the suite uses.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = (
    "multiprocessing",
    "concurrent.futures",
    "repro.experiments.parallel",
    "repro.analysis.engine",
)

PROGRAM = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import repro
from repro.experiments.runner import Simulation
Simulation(repro.SimulationConfig(horizon_hours=0.01))
print(",".join(name for name in {HEAVY!r} if name in sys.modules))
"""


def test_plain_run_imports_no_pool_and_no_lint_engine():
    loaded = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    assert loaded == ""
