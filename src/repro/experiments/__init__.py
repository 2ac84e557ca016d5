"""Experiments: the simulation runner plus the paper's scenario sweeps.

Every table and figure of the paper is a registered scenario, and a
scenario run's envelope is the one experiment result type.  Quick use::

    from repro.experiments.report import render_ci_rows
    from repro.experiments.scenarios import get_scenario, run_scenario

    result = run_scenario(
        get_scenario("exp1-granularity"),
        replications=1,
        warmup_fraction=0.0,
        horizon_hours=8,
    )
    print(render_ci_rows(result))
"""

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import (
    Simulation,
    SimulationResult,
    run_simulation,
)

__all__ = [
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "run_simulation",
]
