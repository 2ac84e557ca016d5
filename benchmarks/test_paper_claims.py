"""Figures 2, 7 and 8 — the paper's claims at the bench horizons.

Checks every claim of ``tests/integration/paper_claims.py`` that has a
``bench`` entry (a ``full`` entry under ``REPRO_FULL=1``), running each
distinct cell once, and prints the values each claim compared.  The
full figures, every cell of each grid, come from
``scripts/reproduce_paper.py``.
"""

import pytest

from conftest import full_scale
from tests.integration.paper_claims import (
    BENCH,
    CLAIMS,
    FULL,
    run_claim_cells,
)

TIER = FULL if full_scale() else BENCH
TIER_CLAIMS = [claim for claim in CLAIMS.values() if TIER in claim.tiers]
METRICS = (
    "hit_ratio", "response_time", "error_rate", "disconnected_error_rate",
)


@pytest.fixture(scope="module")
def claim_results():
    return run_claim_cells(TIER_CLAIMS, TIER)


@pytest.mark.parametrize(
    "claim", TIER_CLAIMS, ids=[claim.name for claim in TIER_CLAIMS]
)
def test_paper_claim(claim, claim_results):
    runs = claim.verify(TIER, claim_results)
    print(f"\n{claim.name} at {claim.tiers[TIER].hours:g} h")
    for dims, result in runs.pairs:
        values = " ".join(
            f"{metric}={getattr(result, metric):.4f}" for metric in METRICS
        )
        print(f"  {dims} {values}")
