"""Replicated-scenario benchmark: the registry at realistic scale.

Runs one registered scenario with several replications through the
full pipeline — plan expansion, parallel fan-out, warm-up truncation,
per-cell confidence intervals — and asserts the envelope's statistical
shape: every cell carries a full metric set, half-widths are finite and
non-negative, and cells differing only by replacement policy share a
replication count.  ``REPRO_FULL=1`` lifts the horizon to the paper's
scale.
"""

import os

from conftest import horizon
from repro.experiments.scenarios import METRICS, get_scenario, run_scenario

REPLICATIONS = 5 if os.environ.get("REPRO_FULL", "") == "1" else 3


def test_replicated_scenario_bench():
    result = run_scenario(
        get_scenario("exp4-cyclic"),
        replications=REPLICATIONS,
        horizon_hours=horizon(1.0),
        jobs=0,
    )
    assert not result.failures
    assert len(result.cells) == 4
    for cell in result.cells:
        assert cell.replications == REPLICATIONS
        for metric in METRICS:
            stats = cell.stats[metric]
            assert stats.n == REPLICATIONS
            assert stats.half_width >= 0.0
            assert stats.low <= stats.mean <= stats.high
    # Replications, not cells, drive the interval: at least one metric
    # in one cell must show genuine cross-replication variance.
    assert any(
        cell.stats[metric].half_width > 0.0
        for cell in result.cells
        for metric in METRICS
    )
