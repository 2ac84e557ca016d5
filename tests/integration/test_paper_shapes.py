"""End-to-end shape tests: the paper's headline findings in miniature.

Each claim test checks one claim of :mod:`tests.integration.paper_claims`
at its tier-1 horizon.  The module fixture runs every distinct cell the
tier-1 claims compare exactly once, through the scenario executor, so
claims that share a config share its run.  The behaviour tests at the
end are not paper claims.
"""

import pytest

from repro import SimulationConfig
from repro.experiments.runner import Simulation
from tests.integration.paper_claims import CLAIMS, TIER1, run_claim_cells

HOURS = 6.0

TIER1_CLAIMS = [claim for claim in CLAIMS.values() if TIER1 in claim.tiers]


@pytest.fixture(scope="module")
def claim_results():
    return run_claim_cells(TIER1_CLAIMS, TIER1)


def claim_test(name):
    """A test method checking claim ``name`` at its tier-1 horizon."""
    claim = CLAIMS[name]

    def test(self, claim_results):
        claim.verify(TIER1, claim_results)

    test.__doc__ = claim.doc
    test.claim = name
    return test


class TestExperiment1Shapes:
    test_nc_is_far_worse = claim_test("nc-far-worse")
    test_oc_hits_beat_ac_but_respond_slower = claim_test(
        "oc-more-hits-slower-responses"
    )
    test_hc_combines_the_best_of_both = claim_test("hc-near-ac")
    test_oc_error_rate_highest = claim_test("oc-errors-highest")
    test_hc_errors_at_most_ac = claim_test("hc-errors-at-most-ac")


class TestCoherenceShapes:
    test_hit_ratio_grows_with_beta = claim_test("hits-rise-with-beta")
    test_error_rate_grows_with_beta = claim_test("errors-rise-with-beta")
    test_response_time_falls_with_beta = claim_test(
        "responses-fall-with-beta"
    )
    test_errors_grow_with_update_probability = claim_test(
        "errors-rise-with-u"
    )
    test_hit_ratio_falls_with_update_probability = claim_test(
        "hits-fall-with-u"
    )


class TestDisconnectionShapes:
    test_errors_grow_with_disconnection_duration = claim_test(
        "disconnected-errors-rise-with-duration"
    )

    def test_disconnected_clients_see_no_traffic_during_window(self):
        sim = Simulation(
            SimulationConfig(
                disconnected_clients=10,
                disconnection_hours=HOURS,
                horizon_hours=HOURS,
            )
        )
        result = sim.run()
        # Every client disconnected for the whole run: all queries are
        # answered locally against a cold cache.
        assert result.hit_ratio == 0.0
        assert sim.network.bytes_upstream == 0
        assert all(
            c.metrics.disconnected_queries == c.metrics.queries
            for c in sim.clients
        )


class TestArrivalShapes:
    test_bursty_response_exceeds_poisson = claim_test("bursty-nq-slower")
    test_nq_response_exceeds_aq = claim_test("nq-slower-than-aq")


def test_every_tier1_claim_has_one_test():
    tested = [
        test.claim
        for cls in (
            TestExperiment1Shapes,
            TestCoherenceShapes,
            TestDisconnectionShapes,
            TestArrivalShapes,
        )
        for test in vars(cls).values()
        if hasattr(test, "claim")
    ]
    assert sorted(tested) == sorted(claim.name for claim in TIER1_CLAIMS)
