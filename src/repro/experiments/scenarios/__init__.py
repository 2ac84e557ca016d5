"""Scenario registry: declarative replicated experiments.

A scenario is a declarative spec (dict or TOML) naming a base config,
the swept dimensions, a replication count and a warm-up fraction; the
registry holds the paper's experiments as specs, the plan expands them
into seeded runs, and the runner aggregates warm-up-truncated metrics
into per-cell confidence intervals.  See DESIGN.md §13 for the seed
hierarchy and EXPERIMENTS.md for the methodology.
"""

from repro.experiments.scenarios.plan import (
    REPLICATION_DIM,
    PlannedRun,
    ReplicationPlan,
)
from repro.experiments.scenarios.registry import (
    get_scenario,
    register,
    register_dict,
    register_toml,
    scenario_names,
    scenarios,
)
from repro.experiments.scenarios.run import (
    METRICS,
    CellResult,
    ScenarioResult,
    collect_outcomes,
    replication_metrics,
    run_scenario,
)
from repro.experiments.scenarios.spec import (
    Cell,
    Dimension,
    Scenario,
    load_toml,
)

__all__ = [
    "METRICS",
    "REPLICATION_DIM",
    "Cell",
    "CellResult",
    "Dimension",
    "PlannedRun",
    "ReplicationPlan",
    "Scenario",
    "ScenarioResult",
    "collect_outcomes",
    "get_scenario",
    "load_toml",
    "register",
    "register_dict",
    "register_toml",
    "replication_metrics",
    "run_scenario",
    "scenario_names",
    "scenarios",
]
