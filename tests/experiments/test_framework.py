"""The paper's experiments as scenarios: run lists, horizons, reports."""

from repro.experiments import report
from repro.experiments.parallel import RunFailure
from repro.experiments.scenarios import (
    CellResult,
    ReplicationPlan,
    ScenarioResult,
    get_scenario,
)
from repro.experiments.scenarios.spec import (
    FAST_HORIZON_HOURS,
    FULL_HORIZON_HOURS,
    default_horizon_hours,
)
from repro.experiments.tables import render_table1, table1_rows
from repro.metrics.stats import MetricStats


def paper_runs(name, horizon_hours):
    """The one-replication run list of a paper scenario: (dims, config)."""
    plan = ReplicationPlan(
        get_scenario(name), replications=1, horizon_hours=horizon_hours
    )
    return [
        (descriptor.dims, descriptor.config)
        for descriptor in plan.descriptors()
    ]


class TestDefaultHorizon:
    def test_fast_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert default_horizon_hours() == FAST_HORIZON_HOURS

    def test_full_with_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert default_horizon_hours() == FULL_HORIZON_HOURS


class TestRunSpecs:
    """The scenarios must enumerate exactly the paper's sweeps."""

    def test_exp1_covers_full_grid(self):
        runs = paper_runs("exp1-granularity", 1.0)
        assert len(runs) == 4 * 2 * 2 * 2
        labels = {tuple(sorted(d.items())) for d, __ in runs}
        assert len(labels) == len(runs)

    def test_exp2_policies_and_single_client(self):
        runs = paper_runs("exp2-replacement-ro", 1.0)
        assert len(runs) == 6 * 2 * 2 * 2
        for __, config in runs:
            assert config.num_clients == 1
            assert config.update_probability == 0.0
            assert config.granularity == "HC"

    def test_exp3_is_exp2_with_writes(self):
        runs = paper_runs("exp3-replacement-rw", 1.0)
        for __, config in runs:
            assert config.num_clients == 10
            assert config.update_probability == 0.1

    def test_exp4_change_rates(self):
        runs = paper_runs("exp4-change-rates", 1.0)
        assert len(runs) == 4 * 3
        rates = {config.csh_change_every for __, config in runs}
        assert rates == {300, 500, 700}

    def test_exp4_cyclic(self):
        runs = paper_runs("exp4-cyclic", 1.0)
        assert len(runs) == 4
        assert all(config.heat == "cyclic" for __, config in runs)

    def test_exp5_grid(self):
        runs = paper_runs("exp5-coherence", 1.0)
        assert len(runs) == 3 * 3 * 3
        betas = {config.beta for __, config in runs}
        assert betas == {-1.0, 0.0, 1.0}

    def test_exp6_durations_scaled_to_short_horizon(self):
        runs = paper_runs("exp6-durations", 8.0)
        for dims, config in runs:
            assert config.disconnection_hours <= 8.0
            assert config.disconnected_clients == 5
            # Labels keep the paper's D values.
            assert dims["duration_hours"] in (1.0, 4.0, 7.0, 10.0)

    def test_exp6_client_count_sweep(self):
        runs = paper_runs("exp6-client-counts", 8.0)
        counts = {config.disconnected_clients for __, config in runs}
        assert counts == {1, 3, 5, 7, 9}


def stats(mean, half_width=0.0, n=1):
    return MetricStats(
        mean=mean, half_width=half_width, n=n, std=0.0, confidence=0.95
    )


def make_result(replications):
    """A two-cell result over the three headline metrics."""
    cells = [
        CellResult(
            dims={"g": g},
            replications=replications,
            stats={
                "hit_ratio": stats(hit, 0.01),
                "response_time": stats(1.0),
                "uplink_bytes": stats(2048.0),
            },
        )
        for g, hit in (("AC", 0.5), ("OC", 0.6))
    ]
    return ScenarioResult(
        scenario=get_scenario("exp1-granularity"),
        horizon_hours=1.0,
        base_seed=42,
        replications=replications,
        warmup_fraction=0.0,
        confidence=0.95,
        cells=cells,
        failures=[RunFailure(1, {"g": "HC"}, "HC run", "Traceback")],
    )


class TestReports:
    def test_render_ci_rows(self):
        single = report.render_ci_rows(make_result(1))
        assert "Figure 2" in single
        assert "AC" in single and "OC" in single
        assert "50.00%" in single
        # One replication has no interval to show.
        assert "±" not in single
        assert "1 run(s) FAILED" in single
        replicated = report.render_ci_rows(make_result(3))
        assert "50.00% ±1.00%" in replicated


class TestTable1:
    def test_rows_cover_six_experiments(self):
        rows = table1_rows()
        assert len(rows) == 6
        assert rows[0]["experiment"].startswith("#1")

    def test_render_mentions_key_values(self):
        text = render_table1()
        assert "ewma-0.5" in text
        assert "NC, AC, OC, HC" in text
        assert "0.1, 0.3, 0.5" in text
