"""Shared fixture: one serial replication of a registered scenario.

Tests that need the same scenario at the same horizon share its runs
instead of simulating equal configs twice.
"""

import pytest

from repro.experiments.parallel import ParallelExecutor
from repro.experiments.scenarios import ReplicationPlan, get_scenario


@pytest.fixture(scope="session")
def single_replication():
    """``single_replication(name, hours)`` -> ``(plan, outcomes)``: every
    cell of scenario ``name`` run once, serially, at seed 42."""
    runs = {}

    def run(name, hours):
        if (name, hours) not in runs:
            plan = ReplicationPlan(
                get_scenario(name), replications=1, horizon_hours=hours
            )
            runs[name, hours] = (
                plan,
                ParallelExecutor(jobs=1).run(name, plan.descriptors()),
            )
        return runs[name, hours]

    return run
