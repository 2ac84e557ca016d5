"""Scenario registry: spec validation, planning, golden determinism.

The scenario layer's contract mirrors the parallel executor's: the
(scenario, horizon, base seed, replications, warm-up, confidence)
tuple fully determines the result envelope — worker count, completion
order and wall clock are unobservable.  These tests lock that down on
tiny in-line scenarios, plus the spec validation surface and the CLI.
"""

import json
import sys

import pytest

from repro.cli import main
from repro.errors import ScenarioError, StatisticsError
from repro.experiments.config import SimulationConfig
from repro.experiments.parallel import ParallelExecutor, execute_descriptor
from repro.experiments.runner import run_simulation
from repro.experiments.scenarios import (
    METRICS,
    ReplicationPlan,
    Scenario,
    collect_outcomes,
    get_scenario,
    load_toml,
    run_scenario,
    scenario_names,
)
from repro.sim.rand import replication_seed

#: Small horizon keeping replicated grids affordable; 2 clients halve
#: the per-run cost again.  Warm-up is zero because a 0.15 h horizon
#: holds a single time-series bucket.
TINY = {
    "experiment_id": "tiny",
    "base": {"num_clients": 2, "update_probability": 0.1},
    "sweep": [
        {"name": "granularity", "values": ["OC", "HC"]},
    ],
    "replications": 2,
    "warmup_fraction": 0.0,
}
TINY_HORIZON_HOURS = 0.15


def tiny_scenario(**overrides):
    spec = {**TINY, **overrides}
    return Scenario.from_dict("tiny", spec)


def cell_configs(scenario, horizon_hours, seed=42):
    """Every cell's (dims, config) at one horizon and seed."""
    return [
        (cell.dims_dict(), scenario.build_config(cell, horizon_hours, seed))
        for cell in scenario.cells()
    ]


def envelope_bytes(result):
    """Canonical byte serialisation of a scenario result envelope."""
    return json.dumps(result.envelope(), sort_keys=False).encode("utf-8")


class TestSpecValidation:
    def test_registered_names(self):
        names = scenario_names()
        assert "exp1-granularity" in names
        assert "exp7-bursts" in names
        assert "tournament" in names
        assert len(names) == 11
        tournament = get_scenario("tournament").cells()
        assert len({cell.dims_dict()["policy"] for cell in tournament}) == 10
        assert {cell.dims_dict()["heat"] for cell in tournament} == {
            "cyclic", "scan", "zipf", "hotspot",
        }
        assert len(tournament) == 40

    def test_unknown_scenario(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            get_scenario("exp99-nope")

    def test_unknown_spec_key(self):
        with pytest.raises(ScenarioError, match="unknown spec keys"):
            tiny_scenario(warm_up=0.1)

    def test_unknown_config_field(self):
        with pytest.raises(ScenarioError, match="unknown SimulationConfig"):
            tiny_scenario(base={"granurality": "HC"})

    def test_reserved_field_in_base(self):
        with pytest.raises(ScenarioError, match="reserved field"):
            tiny_scenario(base={"seed": 1})

    def test_reserved_field_in_sweep(self):
        with pytest.raises(ScenarioError, match="reserved field"):
            tiny_scenario(
                sweep=[{"name": "horizon_hours", "values": [1.0, 2.0]}]
            )

    def test_empty_sweep(self):
        with pytest.raises(ScenarioError, match="sweeps no dimensions"):
            tiny_scenario(sweep=[])

    def test_empty_dimension_values(self):
        with pytest.raises(ScenarioError, match="sweeps no values"):
            tiny_scenario(sweep=[{"name": "granularity", "values": []}])

    def test_duplicate_dimension_value(self):
        with pytest.raises(ScenarioError, match="repeats a value"):
            tiny_scenario(
                sweep=[{"name": "granularity", "values": ["HC", "HC"]}]
            )

    def test_duplicate_dimension(self):
        with pytest.raises(ScenarioError, match="repeats dimension"):
            tiny_scenario(
                sweep=[
                    {"name": "granularity", "values": ["OC"]},
                    {"name": "granularity", "values": ["HC"]},
                ]
            )

    def test_dims_order_unknown_name(self):
        with pytest.raises(ScenarioError, match="dims_order"):
            tiny_scenario(dims_order=["nonexistent"])

    def test_const_dim_clash(self):
        with pytest.raises(ScenarioError, match="clashes"):
            tiny_scenario(const_dims={"granularity": "HC"})

    def test_bad_warmup(self):
        with pytest.raises(ScenarioError, match="warm-up"):
            tiny_scenario(warmup_fraction=1.0)

    def test_bad_replications(self):
        with pytest.raises(ScenarioError, match="replications"):
            tiny_scenario(replications=0)

    def test_bad_scale_fraction(self):
        with pytest.raises(ScenarioError, match="scale fraction"):
            tiny_scenario(scaled_fields={"disconnection_hours": 1.5})

    def test_malformed_replications(self):
        with pytest.raises(ScenarioError, match="malformed"):
            tiny_scenario(replications="many")


class TestExpansion:
    def test_cells_cartesian_order(self):
        scenario = Scenario.from_dict("grid", {
            "experiment_id": "grid",
            "sweep": [
                {"name": "heat", "values": ["SH", "CSH"]},
                {"name": "granularity", "values": ["OC", "HC"]},
            ],
            "dims_order": ["granularity", "heat"],
        })
        cells = scenario.cells()
        # Outer dimension first, inner fastest; dims_order controls the
        # reported dict order without touching expansion order.
        assert [c.dims_dict() for c in cells] == [
            {"granularity": "OC", "heat": "SH"},
            {"granularity": "HC", "heat": "SH"},
            {"granularity": "OC", "heat": "CSH"},
            {"granularity": "HC", "heat": "CSH"},
        ]

    def test_cell_key_is_order_insensitive(self):
        scenario = tiny_scenario()
        key = scenario.cells()[0].key()
        assert "granularity='OC'" in key

    def test_build_runs_full_configs(self):
        plan = ReplicationPlan(
            tiny_scenario(), replications=1, horizon_hours=1.0, seed=7
        )
        runs = plan.descriptors()
        assert len(runs) == 2
        dims, config = runs[0].dims, runs[0].config
        assert dims == {"granularity": "OC", "replication": 0}
        assert config == SimulationConfig(
            granularity="OC",
            num_clients=2,
            update_probability=0.1,
            horizon_hours=1.0,
            seed=7,
        )

    def test_scaled_fields_cap_at_horizon_fraction(self):
        scenario = get_scenario("exp6-durations")
        for dims, config in cell_configs(scenario, 2.0):
            assert config.disconnection_hours == min(
                dims["duration_hours"], 0.8 * 2.0
            )
            # The reported label keeps the paper's nominal duration.
            assert dims["duration_hours"] in (1.0, 4.0, 7.0, 10.0)

    def test_registered_scenarios_expand_to_valid_configs(self):
        for name in scenario_names():
            for dims, config in cell_configs(get_scenario(name), 1.0):
                config.validate()
                assert dims


class TestTomlRoundTrip:
    def test_load_register_and_run_list(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "scenarios.toml"
        path.write_text(
            """
[toml-tiny]
title = "TOML round trip"
experiment_id = "tiny"
replications = 3
warmup_fraction = 0.25

[toml-tiny.base]
num_clients = 2
update_probability = 0.1

[[toml-tiny.sweep]]
name = "granularity"
values = ["OC", "HC"]
"""
        )
        scenarios = load_toml(str(path))
        assert list(scenarios) == ["toml-tiny"]
        loaded = scenarios["toml-tiny"]
        assert loaded.replications == 3
        assert loaded.warmup_fraction == 0.25
        # The TOML spec and the equivalent dict spec agree exactly.
        runs_toml = cell_configs(loaded, 1.0, seed=5)
        runs_dict = cell_configs(tiny_scenario(), 1.0, seed=5)
        assert runs_toml == runs_dict

    def test_invalid_toml_raises_scenario_error(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "broken.toml"
        path.write_text("[unterminated\n")
        with pytest.raises(ScenarioError, match="invalid TOML"):
            load_toml(str(path))

    def test_invalid_spec_in_toml_raises(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "bad.toml"
        path.write_text("[bad]\ntitle = 'no sweep'\n")
        with pytest.raises(ScenarioError, match="sweeps no dimensions"):
            load_toml(str(path))

    def test_toml_without_tomllib_raises_scenario_error(
        self, tmp_path, monkeypatch
    ):
        # Python 3.10 has no tomllib: the spec is refused by name, not
        # with a ModuleNotFoundError.
        monkeypatch.setitem(sys.modules, "tomllib", None)
        path = tmp_path / "spec.toml"
        path.write_text("[tiny]\ntitle = 'any'\n")
        with pytest.raises(ScenarioError, match="Python 3.11"):
            load_toml(str(path))


class TestReplicationPlan:
    def test_expansion_order_and_seeds(self):
        plan = ReplicationPlan(tiny_scenario(), replications=3, seed=42)
        descriptors = plan.descriptors()
        assert len(descriptors) == 6
        # Cells outer, replications inner; every cell of one
        # replication shares a seed (common random numbers), and the
        # seeds are the documented derivation.
        for index, descriptor in enumerate(descriptors):
            replication = index % 3
            assert descriptor.index == index
            assert descriptor.dims["replication"] == replication
            assert descriptor.config.seed == replication_seed(
                42, replication
            )
        assert descriptors[0].config.seed == descriptors[3].config.seed
        assert descriptors[0].config.seed != descriptors[1].config.seed

    def test_plan_rejects_bad_replications(self):
        with pytest.raises(ScenarioError, match="replications .* got 0"):
            ReplicationPlan(tiny_scenario(), replications=0)

    def test_single_replication_runs_at_base_seed(self):
        """N = 1 is the paper's single-run table: the base seed itself,
        not ``replication_seed(base, 0)``."""
        plan = ReplicationPlan(tiny_scenario(), replications=1, seed=42)
        assert [d.config.seed for d in plan.descriptors()] == [42, 42]
        assert replication_seed(42, 0) != 42

    def test_default_replications_from_scenario(self):
        plan = ReplicationPlan(tiny_scenario())
        assert plan.replications == 2


class TestGoldenDeterminism:
    """The envelope is a pure function of the scenario parameters."""

    def test_serial_matches_jobs_4(self):
        scenario = tiny_scenario()
        serial = run_scenario(
            scenario, horizon_hours=TINY_HORIZON_HOURS, seed=11, jobs=1
        )
        pooled = run_scenario(
            scenario, horizon_hours=TINY_HORIZON_HOURS, seed=11, jobs=4
        )
        assert envelope_bytes(serial) == envelope_bytes(pooled)
        assert not serial.failures

    def test_out_of_declaration_order_identical(self):
        """Executing the plan's runs in reverse order and re-collecting
        produces the identical envelope: the plan, not the scheduler,
        owns the structure."""
        scenario = tiny_scenario()
        plan = ReplicationPlan(
            scenario, horizon_hours=TINY_HORIZON_HOURS, seed=11
        )
        descriptors = plan.descriptors()
        in_order = ParallelExecutor(jobs=1).run("tiny", descriptors)
        reversed_outcomes = [
            execute_descriptor(d) for d in reversed(descriptors)
        ]
        a = collect_outcomes(plan, in_order)
        b = collect_outcomes(plan, reversed_outcomes)
        assert envelope_bytes(a) == envelope_bytes(b)

    def test_envelope_json_stable(self):
        scenario = tiny_scenario(sweep=[
            {"name": "granularity", "values": ["HC"]},
        ])
        result = run_scenario(
            scenario, horizon_hours=TINY_HORIZON_HOURS, seed=3
        )
        envelope = result.envelope()
        assert json.loads(result.to_json()) == envelope
        record = envelope["records"][0]
        for metric in METRICS:
            assert metric in record
            assert f"{metric}_half_width" in record

    def test_missing_outcomes_rejected(self):
        plan = ReplicationPlan(
            tiny_scenario(), horizon_hours=TINY_HORIZON_HOURS
        )
        outcomes = ParallelExecutor(jobs=1).run(
            "tiny", plan.descriptors()[:-1]
        )
        with pytest.raises(ValueError, match="outcomes"):
            collect_outcomes(plan, outcomes)


class TestStatisticalSmoke:
    @pytest.mark.slow
    def test_ci_shrinks_with_replications(self):
        """Half-widths shrink roughly like 1/sqrt(n) from 5 to 20
        replications.  The exact ratio is seed-dependent (the t critical
        value falls too), so the bounds are loose: the 20-rep interval
        must be materially tighter and not absurdly so."""
        scenario = Scenario.from_dict("shrink", {
            "experiment_id": "shrink",
            "base": {"num_clients": 2, "update_probability": 0.1},
            "sweep": [{"name": "granularity", "values": ["HC"]}],
            "warmup_fraction": 0.0,
        })
        five = run_scenario(
            scenario, replications=5, horizon_hours=0.3, seed=42
        )
        twenty = run_scenario(
            scenario, replications=20, horizon_hours=0.3, seed=42
        )
        wide = five.cells[0].stats["hit_ratio"]
        narrow = twenty.cells[0].stats["hit_ratio"]
        assert wide.half_width > 0.0
        ratio = narrow.half_width / wide.half_width
        # sqrt(5/20) = 0.5; t_crit(19)/t_crit(4) ~ 0.75 shrinks it more.
        assert 0.1 < ratio < 0.9
        # The replicated means agree within the wider interval.
        assert abs(narrow.mean - wide.mean) <= wide.half_width

    def test_warmup_consuming_horizon_raises(self):
        with pytest.raises(StatisticsError, match="warm-up"):
            run_scenario(
                tiny_scenario(),
                horizon_hours=TINY_HORIZON_HOURS,
                warmup_fraction=1.0,
            )

    def test_empty_measurement_window_raises(self):
        """A 0.15 h horizon is a single half-hour bucket, so any
        non-zero warm-up empties the window — a clean error, not NaNs."""
        with pytest.raises(StatisticsError, match="measurement window"):
            run_scenario(
                tiny_scenario(),
                replications=1,
                horizon_hours=TINY_HORIZON_HOURS,
                warmup_fraction=0.1,
            )

    def test_single_replication_zero_width(self):
        result = run_scenario(
            tiny_scenario(),
            replications=1,
            horizon_hours=TINY_HORIZON_HOURS,
        )
        for cell in result.cells:
            for metric in METRICS:
                assert cell.stats[metric].half_width == 0.0
                assert cell.stats[metric].n == 1


class TestCli:
    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "exp1-granularity" in out
        assert "exp6-client-counts" in out

    def test_scenario_run_with_envelope(self, capsys, tmp_path):
        out_path = tmp_path / "envelope.json"
        code = main([
            "scenario", "run", "exp4-cyclic",
            "--replications", "2",
            "--hours", str(TINY_HORIZON_HOURS),
            "--warmup", "0.0",
            "--quiet",
            "--out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "±" in out
        envelope = json.loads(out_path.read_text())
        assert envelope["metadata"]["scenario"] == "exp4-cyclic"
        assert len(envelope["records"]) == 4
        assert not envelope["failures"]

    def test_scenario_run_from_toml_spec(self, capsys, tmp_path):
        pytest.importorskip("tomllib")
        spec = tmp_path / "extra.toml"
        spec.write_text(
            """
[cli-tiny]
experiment_id = "tiny"
warmup_fraction = 0.0

[cli-tiny.base]
num_clients = 2

[[cli-tiny.sweep]]
name = "granularity"
values = ["HC"]
"""
        )
        code = main([
            "scenario", "run", "cli-tiny",
            "--spec", str(spec),
            "--replications", "1",
            "--hours", str(TINY_HORIZON_HOURS),
            "--quiet",
        ])
        assert code == 0

    def test_scenario_run_unknown_name(self, capsys):
        assert main(["scenario", "run", "exp99-nope", "--quiet"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_scenario_run_unreadable_spec(self, capsys, tmp_path, kind):
        path = tmp_path / "spec.toml"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"[tiny]\ntitle = '\xff\xfe'\n")
        code = main([
            "scenario", "run", "tiny", "--spec", str(path), "--quiet",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err

    def test_scenario_run_out_into_missing_directory(
        self, capsys, monkeypatch, tmp_path
    ):
        def no_runs(self, experiment_id, descriptors):
            raise AssertionError("a run executed before the --out check")

        monkeypatch.setattr(ParallelExecutor, "run", no_runs)
        out_path = tmp_path / "absent" / "envelope.json"
        code = main([
            "scenario", "run", "exp4-cyclic",
            "--replications", "1",
            "--hours", str(TINY_HORIZON_HOURS),
            "--quiet",
            "--out", str(out_path),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(out_path) in captured.err

    def test_scenario_run_bad_warmup(self, capsys):
        code = main([
            "scenario", "run", "exp4-cyclic",
            "--warmup", "1.0", "--quiet",
        ])
        assert code == 2
        assert "warm-up" in capsys.readouterr().err

    def test_scenario_run_bad_replications(self, capsys):
        code = main([
            "scenario", "run", "exp4-cyclic",
            "--replications", "0", "--quiet",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "replications must be >= 1, got 0" in err

    def test_scenario_run_bad_jobs(self, capsys):
        code = main([
            "scenario", "run", "exp4-cyclic",
            "--jobs", "-1", "--quiet",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "jobs must be >= 1" in err and "got -1" in err

    def test_scenario_run_bad_confidence(self, capsys):
        code = main([
            "scenario", "run", "exp4-cyclic",
            "--replications", "1", "--confidence", "1.5", "--quiet",
        ])
        assert code == 2
        assert "confidence must lie in (0, 1), got 1.5" in (
            capsys.readouterr().err
        )


class TestConfidenceValidation:
    @pytest.mark.parametrize("replications", [1, 2])
    def test_bad_confidence_fails_before_any_run(
        self, monkeypatch, replications
    ):
        def no_runs(self, experiment_id, descriptors):
            raise AssertionError("a run executed before validation")

        monkeypatch.setattr(ParallelExecutor, "run", no_runs)
        with pytest.raises(StatisticsError, match="confidence"):
            run_scenario(
                tiny_scenario(),
                replications=replications,
                horizon_hours=TINY_HORIZON_HOURS,
                confidence=1.5,
            )


class TestSingleReplicationOracle:
    """A one-replication, warm-up-free envelope record is exactly what a
    plain ``run_simulation`` of the cell's config at the base seed
    reports.  ``response_time`` alone may differ in the last bits: the
    envelope sums the bucketed series, the run's Welford tally does
    not.  Exp7 runs at 0.3 h: at 0.15 h its bursts drop a few messages
    but no timeout, retry or degraded answer happens yet."""

    @pytest.mark.parametrize(
        "name, hours",
        [("exp5-coherence", TINY_HORIZON_HOURS), ("exp7-bursts", 0.3)],
    )
    def test_records_match_run_simulation(
        self, name, hours, single_replication
    ):
        scenario = get_scenario(name)
        plan, outcomes = single_replication(name, hours)
        records = collect_outcomes(
            plan, outcomes, warmup_fraction=0.0
        ).envelope()["records"]
        assert len(records) == len(scenario.cells())
        for cell, record in zip(scenario.cells(), records, strict=True):
            direct = run_simulation(
                scenario.build_config(cell, hours, 42)
            )
            summary = direct.summary
            assert record["queries"] == summary.total_queries
            assert record["hit_ratio"] == direct.hit_ratio
            assert record["error_rate"] == direct.error_rate
            assert record["disconnected_error_rate"] == (
                direct.disconnected_error_rate
            )
            assert record["uplink_bytes"] == summary.total_bytes_sent
            assert record["drops"] == direct.messages_dropped
            assert record["retries"] == direct.retries
            assert record["timeouts"] == direct.timeouts
            assert record["degraded"] == direct.degraded_queries
            assert record["response_time"] == pytest.approx(
                direct.response_time, rel=1e-12, abs=0.0
            )
        if name == "exp7-bursts":
            # The fault counters must actually have fired.
            for counter in ("drops", "retries", "timeouts", "degraded"):
                assert sum(record[counter] for record in records) > 0
