"""End-to-end shape tests: the paper's headline findings in miniature.

Each fixture runs a reduced-horizon simulation (hours, not the paper's
96 h), so assertions are deliberately about *orderings and directions*,
not absolute values.  Several tests use equal configs (the defaults at
``HOURS``); :func:`simulate` runs each distinct config once per test run.
"""

import pytest

from repro import SimulationConfig, SimulationResult, run_simulation

HOURS = 6.0

_runs: list[tuple[SimulationConfig, SimulationResult]] = []


def simulate(config: SimulationConfig) -> SimulationResult:
    """``run_simulation`` memoized by config equality."""
    for seen, result in _runs:
        if seen == config:
            return result
    result = run_simulation(config)
    _runs.append((config, result))
    return result


@pytest.fixture(scope="module")
def granularity_results():
    return {
        g: simulate(
            SimulationConfig(granularity=g, horizon_hours=HOURS)
        )
        for g in ("NC", "AC", "OC", "HC")
    }


class TestExperiment1Shapes:
    def test_nc_is_far_worse(self, granularity_results):
        nc = granularity_results["NC"]
        for other in ("AC", "OC", "HC"):
            result = granularity_results[other]
            assert nc.hit_ratio < result.hit_ratio / 3
            assert nc.response_time > 2 * result.response_time

    def test_oc_hits_beat_ac_but_respond_slower(self, granularity_results):
        ac = granularity_results["AC"]
        oc = granularity_results["OC"]
        assert oc.hit_ratio > ac.hit_ratio
        assert oc.response_time > 1.5 * ac.response_time

    def test_hc_combines_the_best_of_both(self, granularity_results):
        ac = granularity_results["AC"]
        oc = granularity_results["OC"]
        hc = granularity_results["HC"]
        # Hit ratio close to OC (well above halfway between AC and OC is
        # too strict at this horizon; demand at least AC's level).
        assert hc.hit_ratio >= ac.hit_ratio - 0.02
        # Response time near AC's, far below OC's.
        assert hc.response_time < (ac.response_time + oc.response_time) / 2

    def test_oc_error_rate_highest(self, granularity_results):
        ac = granularity_results["AC"]
        oc = granularity_results["OC"]
        hc = granularity_results["HC"]
        assert oc.error_rate > ac.error_rate
        assert oc.error_rate > hc.error_rate

    def test_hc_errors_at_most_ac(self, granularity_results):
        assert (
            granularity_results["HC"].error_rate
            <= granularity_results["AC"].error_rate + 0.01
        )


class TestCoherenceShapes:
    @pytest.fixture(scope="class")
    def beta_sweep(self):
        return {
            beta: simulate(
                SimulationConfig(beta=beta, horizon_hours=HOURS)
            )
            for beta in (-1.0, 0.0, 1.0)
        }

    def test_hit_ratio_grows_with_beta(self, beta_sweep):
        hits = [beta_sweep[beta].hit_ratio for beta in (-1.0, 0.0, 1.0)]
        assert hits == sorted(hits)

    def test_error_rate_grows_with_beta(self, beta_sweep):
        errors = [beta_sweep[beta].error_rate for beta in (-1.0, 0.0, 1.0)]
        assert errors == sorted(errors)

    def test_errors_grow_with_update_probability(self):
        errors = [
            simulate(
                SimulationConfig(
                    update_probability=u, horizon_hours=HOURS
                )
            ).error_rate
            for u in (0.1, 0.5)
        ]
        assert errors[0] < errors[1]


class TestDisconnectionShapes:
    def test_errors_grow_with_disconnection_duration(self):
        """Figures 8a-8c: stale-read errors among disconnected reads
        grow with the disconnection duration."""
        results = [
            simulate(
                SimulationConfig(
                    disconnected_clients=5,
                    disconnection_hours=hours,
                    horizon_hours=HOURS,
                )
            ).disconnected_error_rate
            for hours in (0.25, 2.0)
        ]
        assert results[0] < results[1]

    def test_disconnected_clients_see_no_traffic_during_window(self):
        from repro.experiments.runner import Simulation

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
    def test_bursty_response_exceeds_poisson(self):
        poisson = simulate(
            SimulationConfig(
                query_kind="NQ", arrival="poisson", horizon_hours=12.0
            )
        )
        bursty = simulate(
            SimulationConfig(
                query_kind="NQ", arrival="bursty", horizon_hours=12.0
            )
        )
        assert bursty.response_time > poisson.response_time

    def test_nq_response_exceeds_aq(self):
        aq = simulate(
            SimulationConfig(query_kind="AQ", horizon_hours=HOURS)
        )
        nq = simulate(
            SimulationConfig(query_kind="NQ", horizon_hours=HOURS)
        )
        assert nq.response_time > 1.4 * aq.response_time


class TestDeterminism:
    def test_same_seed_same_results(self):
        config = SimulationConfig(horizon_hours=1.0)
        a = run_simulation(config)
        b = run_simulation(config)
        assert a.hit_ratio == b.hit_ratio
        assert a.response_time == b.response_time
        assert a.error_rate == b.error_rate

    def test_different_seed_different_results(self):
        a = run_simulation(SimulationConfig(horizon_hours=1.0, seed=1))
        b = run_simulation(SimulationConfig(horizon_hours=1.0, seed=2))
        assert a.response_time != b.response_time
