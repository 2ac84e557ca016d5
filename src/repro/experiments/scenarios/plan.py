"""Replication planning: scenario -> ordered, seeded run descriptors.

A :class:`ReplicationPlan` expands every cell of a scenario into N
replicated runs.  Cells iterate in declaration order (outer), the
replication index runs innermost, and each replication's seed derives
from the scenario base seed via
:func:`repro.sim.rand.replication_seed` — content-keyed, so:

* all cells of one replication share a seed (*common random numbers*:
  within a replication, policy comparisons see the same workload);
* distinct replications draw decorrelated streams;
* nothing depends on run-list position or worker scheduling, so the
  plan is bit-identical under any ``--jobs`` and any execution order.

A one-replication plan runs every cell at the base seed itself rather
than at ``replication_seed(base, 0)``: that is the paper's single-run
table (seed 42 by default), and it keeps a plain ``run_simulation`` of
any cell config an exact oracle for the envelope.  Plans with N >= 2
replications always use the derived seeds.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import ScenarioError
from repro.experiments.parallel import RunDescriptor
from repro.experiments.scenarios.spec import (
    Cell,
    Scenario,
    default_horizon_hours,
)
from repro.sim.rand import replication_seed

#: The dimension name carrying the replication index in run dims.
REPLICATION_DIM = "replication"


@dataclasses.dataclass(frozen=True)
class PlannedRun:
    """One (cell, replication) pair of a plan, fully resolved."""

    index: int
    cell_index: int
    replication: int
    cell: Cell
    seed: int


class ReplicationPlan:
    """The full, ordered run expansion of one scenario."""

    def __init__(
        self,
        scenario: Scenario,
        replications: "int | None" = None,
        horizon_hours: "float | None" = None,
        seed: int = 42,
        extra_base: "t.Mapping[str, t.Any] | None" = None,
    ) -> None:
        self.scenario = scenario
        self.replications = (
            replications
            if replications is not None
            else scenario.replications
        )
        if self.replications < 1:
            raise ScenarioError(
                f"replications must be >= 1, got {self.replications!r}"
            )
        self.horizon_hours = (
            horizon_hours
            if horizon_hours is not None
            else (scenario.horizon_hours or default_horizon_hours())
        )
        self.base_seed = seed
        self.extra_base = dict(extra_base) if extra_base else {}
        self.cells = scenario.cells()

    def __len__(self) -> int:
        return len(self.cells) * self.replications

    def runs(self) -> list[PlannedRun]:
        """Every run, cells outer, replications inner."""
        if self.replications == 1:
            seeds = [self.base_seed]
        else:
            seeds = [
                replication_seed(self.base_seed, replication)
                for replication in range(self.replications)
            ]
        planned = []
        index = 0
        for cell_index, cell in enumerate(self.cells):
            for replication, seed in enumerate(seeds):
                planned.append(
                    PlannedRun(
                        index=index,
                        cell_index=cell_index,
                        replication=replication,
                        cell=cell,
                        seed=seed,
                    )
                )
                index += 1
        return planned

    def descriptor(self, run: PlannedRun) -> RunDescriptor:
        """The picklable descriptor of one planned run."""
        dims = run.cell.dims_dict()
        dims[REPLICATION_DIM] = run.replication
        config = self.scenario.build_config(
            run.cell,
            self.horizon_hours,
            run.seed,
            extra_base=self.extra_base or None,
        )
        return RunDescriptor(index=run.index, dims=dims, config=config)

    def descriptors(self) -> list[RunDescriptor]:
        return [self.descriptor(run) for run in self.runs()]
