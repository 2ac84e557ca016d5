"""Parallel execution engine: golden equivalence and isolation tests.

The pool's contract is that worker count and completion order are
unobservable in the results: a scenario run with ``jobs=N`` must
produce a byte-identical envelope to the serial path.  These tests lock
that down on reduced-horizon paper scenarios, plus the
out-of-order-completion and worker-crash-isolation cases the contract
implies.
"""

import io
import json
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.parallel import (
    JOBS_ENV_VAR,
    ParallelExecutor,
    RunDescriptor,
    execute_descriptor,
    resolve_jobs,
)
from repro.experiments.scenarios import (
    ReplicationPlan,
    Scenario,
    collect_outcomes,
    get_scenario,
    run_scenario,
)

#: Small horizon keeping the grids affordable (exp1 is 32 runs, exp5 27).
EQUIVALENCE_HORIZON_HOURS = 0.15


def descriptors(runs):
    """Run descriptors for an ad-hoc ``(dims, config)`` list."""
    return [
        RunDescriptor(index=index, dims=dict(dims), config=config)
        for index, (dims, config) in enumerate(runs)
    ]


def envelope_bytes(result):
    """Canonical byte serialisation of a scenario result envelope."""
    return json.dumps(result.envelope()).encode("utf-8")


def paper_run(scenario, jobs, **kwargs):
    """One replication of every cell, no warm-up, at the short horizon."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    return run_scenario(
        scenario,
        replications=1,
        horizon_hours=EQUIVALENCE_HORIZON_HOURS,
        warmup_fraction=0.0,
        jobs=jobs,
        **kwargs,
    )


class TestGoldenEquivalence:
    """jobs=4 and jobs=1 must agree bitwise on real experiment sweeps."""

    def test_exp1_parallel_matches_serial(self):
        serial = paper_run("exp1-granularity", jobs=1)
        parallel = paper_run("exp1-granularity", jobs=4)
        assert envelope_bytes(serial) == envelope_bytes(parallel)
        assert len(serial.cells) == 32
        assert not serial.failures and not parallel.failures

    def test_exp5_parallel_matches_serial(self, single_replication):
        plan, serial = single_replication(
            "exp5-coherence", EQUIVALENCE_HORIZON_HOURS
        )
        parallel = ParallelExecutor(jobs=4).run("exp5", plan.descriptors())
        assert envelope_bytes(
            collect_outcomes(plan, serial, warmup_fraction=0.0)
        ) == envelope_bytes(
            collect_outcomes(plan, parallel, warmup_fraction=0.0)
        )
        # The instrumentation spine must be as deterministic as the
        # metrics it feeds: identical per-type event totals regardless
        # of worker count.
        assert [o.result.event_counts for o in serial] == [
            o.result.event_counts for o in parallel
        ]
        for outcome in serial:
            summary = outcome.result.summary
            assert outcome.result.event_counts["QueryComplete"] == (
                summary.total_queries
            )

    def test_exp7_parallel_matches_serial(self):
        """Fault draws must replay identically across worker processes.

        Uses aggressive knobs (20% loss, 10 s timeout) so the fault and
        recovery paths genuinely fire within the reduced horizon, then
        checks the drop/retry/timeout/degraded counters bitwise.
        """
        scenario = Scenario.from_dict("faults", {
            "base": {
                "loss_rate": 0.2,
                "request_timeout_seconds": 10.0,
                "backoff_base_seconds": 2.0,
            },
            "sweep": [
                {"name": "granularity", "values": ["AC", "OC", "HC"]},
                {"name": "retry_budget", "values": [0, 2]},
            ],
        })
        serial = paper_run(scenario, jobs=1)
        parallel = paper_run(scenario, jobs=4)
        assert envelope_bytes(serial) == envelope_bytes(parallel)
        assert not serial.failures and not parallel.failures
        # The sweep must actually have exercised the fault machinery.
        records = serial.envelope()["records"]
        assert sum(record["drops"] for record in records) > 0
        assert sum(record["retries"] for record in records) > 0
        assert sum(record["timeouts"] for record in records) > 0

    def test_exp7_driver_entrypoint_matches_serial(self):
        serial = paper_run("exp7-bursts", jobs=1)
        parallel = paper_run("exp7-bursts", jobs=2)
        assert envelope_bytes(serial) == envelope_bytes(parallel)

    def test_driver_entrypoint_accepts_jobs(self, monkeypatch):
        """``jobs=None`` defers to ``REPRO_JOBS``, invisibly."""
        reference = paper_run("exp4-cyclic", jobs=1)
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        from_env = paper_run("exp4-cyclic", jobs=None)
        assert envelope_bytes(from_env) == envelope_bytes(reference)


class TestOutOfOrderCompletion:
    """Fast runs finish first; declared order must come out regardless."""

    def test_results_keep_declaration_order(self):
        # Run 0 simulates ~25x more time than run 1, so with two workers
        # run 1 completes long before run 0 does.
        runs = [
            ({"which": "slow"}, SimulationConfig(horizon_hours=2.5)),
            ({"which": "fast"}, SimulationConfig(horizon_hours=0.1)),
        ]
        log = io.StringIO()
        executor = ParallelExecutor(jobs=2, progress=True, stream=log)
        outcomes = executor.run("order", descriptors(runs))
        assert [o.dims["which"] for o in outcomes] == ["slow", "fast"]
        assert [o.index for o in outcomes] == [0, 1]
        # The progress log records completion order: the fast run is
        # reported as the first completion despite being declared last.
        first_line = log.getvalue().splitlines()[0]
        assert "run 1/2" in first_line

    def test_serial_path_used_for_single_run(self):
        runs = [({"which": "only"}, SimulationConfig(horizon_hours=0.1))]
        executor = ParallelExecutor(jobs=8)
        outcomes = executor.run("single", descriptors(runs))
        assert len(outcomes) == 1 and outcomes[0].ok


class TestCrashIsolation:
    """A run that raises must not take the sweep down with it."""

    @staticmethod
    def crash_scenario():
        # An unknown replacement spec passes config validation but
        # raises ReplacementError when the simulation is wired up —
        # i.e. inside the worker.
        return Scenario.from_dict("crash", {
            "sweep": [
                {
                    "name": "replacement",
                    "values": ["ewma-0.5", "no-such-policy", "lru"],
                },
            ],
        })

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_surfaces_without_killing_sweep(self, jobs):
        result = run_scenario(
            self.crash_scenario(),
            replications=1,
            horizon_hours=0.1,
            warmup_fraction=0.0,
            jobs=jobs,
        )
        assert [cell.dims["replacement"] for cell in result.cells] == [
            "ewma-0.5", "lru",
        ]
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.index == 1
        assert "no-such-policy" in failure.label
        assert "ReplacementError" in failure.traceback
        assert result.envelope()["failures"][0]["label"] == failure.label

    def test_serial_and_parallel_agree_on_failures(self):
        plan = ReplicationPlan(
            self.crash_scenario(), replications=1, horizon_hours=0.1
        )
        serial = ParallelExecutor(jobs=1).run("crash", plan.descriptors())
        parallel = ParallelExecutor(jobs=2).run("crash", plan.descriptors())
        assert [o.ok for o in serial] == [o.ok for o in parallel] == [
            True, False, True,
        ]
        assert [o.result.summary.total_queries for o in serial if o.ok] == [
            o.result.summary.total_queries for o in parallel if o.ok
        ]


class TestJobsResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert resolve_jobs(None) == 5

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(None) == 1

    def test_zero_means_all_cores(self, monkeypatch):
        import os

        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError, match="-2"):
            resolve_jobs(-2)

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(ConfigurationError, match="many"):
            resolve_jobs(None)


class TestRunDescriptors:
    @staticmethod
    def granularity_descriptors():
        return ReplicationPlan(
            get_scenario("exp1-granularity"),
            replications=1,
            horizon_hours=1.0,
        ).descriptors()

    def test_descriptor_is_picklable(self):
        plan_descriptors = self.granularity_descriptors()
        clone = pickle.loads(pickle.dumps(plan_descriptors[5]))
        assert clone == plan_descriptors[5]
        assert clone.config == plan_descriptors[5].config

    def test_indices_follow_declaration_order(self):
        plan_descriptors = self.granularity_descriptors()
        assert [d.index for d in plan_descriptors] == list(range(32))

    def test_execute_descriptor_records_timing(self):
        descriptor = descriptors(
            [({"k": 1}, SimulationConfig(horizon_hours=0.1))]
        )[0]
        outcome = execute_descriptor(descriptor)
        assert outcome.ok
        assert outcome.elapsed_seconds > 0.0


class TestSeedDecorrelation:
    """Replication seeding: CRN within a replication, order-invariant."""

    @staticmethod
    def seeds(scenario, replications):
        plan = ReplicationPlan(
            scenario, replications=replications, horizon_hours=1.0, seed=42
        )
        return [
            (d.dims["replication"], d.config.seed)
            for d in plan.descriptors()
        ]

    def test_default_preserves_config_seeds(self):
        """One replication runs every cell at the base seed itself."""
        seeds = self.seeds(get_scenario("exp5-coherence"), 1)
        assert {seed for __, seed in seeds} == {42}

    def test_decorrelated_runs_get_distinct_seeds(self):
        seeds = self.seeds(get_scenario("exp5-coherence"), 3)
        by_replication = {}
        for replication, seed in seeds:
            by_replication.setdefault(replication, set()).add(seed)
        # Common random numbers within a replication ...
        assert all(len(s) == 1 for s in by_replication.values())
        # ... decorrelated streams across replications.
        assert len(set.union(*by_replication.values())) == 3

    def test_reordering_never_changes_a_configs_seed(self):
        forward = get_scenario("exp5-coherence")
        sweep = [
            {"name": d.name, "field": d.field, "values": list(d.values)[::-1]}
            for d in reversed(forward.sweep)
        ]
        backward = Scenario.from_dict("backward", {
            "base": dict(forward.base), "sweep": sweep,
        })

        def by_config(scenario):
            plan = ReplicationPlan(scenario, replications=2, horizon_hours=1.0)
            return {
                (repr(d.config.replaced(seed=0)), d.dims["replication"]): (
                    d.config.seed
                )
                for d in plan.descriptors()
            }

        assert by_config(forward) == by_config(backward)

    def test_decorrelated_parallel_matches_serial(self):
        scenario = Scenario.from_dict("dec", {
            "sweep": [{"name": "granularity", "values": ["AC", "OC", "HC"]}],
        })

        def run(jobs):
            return run_scenario(
                scenario,
                replications=2,
                horizon_hours=EQUIVALENCE_HORIZON_HOURS,
                warmup_fraction=0.0,
                jobs=jobs,
            )

        serial = run(1)
        assert envelope_bytes(serial) == envelope_bytes(run(2))
        # And the two replications really drew different streams.
        assert any(
            cell.stats[metric].half_width > 0.0
            for cell in serial.cells
            for metric in ("hit_ratio", "response_time", "queries")
        )
