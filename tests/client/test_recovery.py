"""End-to-end tests of the client recovery path (Experiment #7 stack)."""

import dataclasses

import pytest

from repro import SimulationConfig, run_simulation

HORIZON_HOURS = 0.3


def _run(**overrides):
    return run_simulation(
        SimulationConfig(horizon_hours=HORIZON_HOURS, **overrides)
    )


def _headline(result):
    return (
        result.summary.total_queries,
        result.hit_ratio,
        result.response_time,
        result.error_rate,
        result.raw_bytes,
        result.goodput_bytes,
    )


class TestStrictNoOp:
    """With faults off the new layer must be invisible, bit for bit."""

    def test_explicit_zero_knobs_match_defaults(self):
        baseline = _run()
        explicit = _run(
            loss_rate=0.0,
            burst_loss_rate=0.0,
            burst_on_probability=0.0,
            burst_off_probability=0.0,
            request_timeout_seconds=0.0,
            retry_budget=0,
        )
        assert _headline(explicit) == _headline(baseline)

    def test_fault_free_run_reports_no_fault_activity(self):
        result = _run()
        assert result.messages_dropped == 0
        assert result.messages_aborted == 0
        assert result.retries == 0
        assert result.timeouts == 0
        assert result.degraded_queries == 0
        assert result.raw_bytes == pytest.approx(result.goodput_bytes)

    def test_backoff_knobs_alone_change_nothing(self):
        # Backoff parameters are dead knobs while the timeout is zero.
        baseline = _run()
        tweaked = _run(
            backoff_base_seconds=99.0,
            backoff_multiplier=7.0,
            backoff_jitter=1.0,
        )
        assert _headline(tweaked) == _headline(baseline)


class TestRecoveryWithoutFaults:
    def test_generous_timeout_never_fires(self):
        baseline = _run()
        recovered = _run(
            request_timeout_seconds=3600.0, retry_budget=2
        )
        assert recovered.timeouts == 0
        assert recovered.retries == 0
        assert recovered.degraded_queries == 0
        # Replies all arrive, so the paper metrics are *bit-identical*:
        # arming recovery without faults changes nothing, including the
        # accounting of a round the horizon cuts mid-flight.
        assert _headline(recovered) == _headline(baseline)


class TestLossyChannel:
    def test_total_loss_degrades_every_remote_query(self):
        result = _run(
            loss_rate=1.0,
            request_timeout_seconds=30.0,
            retry_budget=1,
            backoff_base_seconds=2.0,
        )
        summary = result.summary
        # Nothing ever comes back: every remote round times out on every
        # attempt and then falls back to cache-only answers.
        assert result.timeouts > 0
        assert result.retries > 0
        assert result.degraded_queries > 0
        assert summary.total_goodput_bytes == 0
        assert result.goodput_bytes == 0
        assert result.raw_bytes > 0

    def test_retries_recover_queries_lost_without_them(self):
        no_retry = _run(
            loss_rate=0.3, request_timeout_seconds=20.0, retry_budget=0,
            backoff_base_seconds=2.0,
        )
        with_retry = _run(
            loss_rate=0.3, request_timeout_seconds=20.0, retry_budget=3,
            backoff_base_seconds=2.0,
        )
        assert no_retry.degraded_queries > 0
        assert with_retry.retries > 0
        # A budget turns most would-be degradations into served queries.
        assert with_retry.degraded_queries < no_retry.degraded_queries

    def test_seeded_runs_reproduce_fault_counters(self):
        def counters():
            result = _run(
                loss_rate=0.2,
                request_timeout_seconds=30.0,
                retry_budget=2,
                backoff_base_seconds=2.0,
            )
            return (
                result.messages_dropped,
                result.retries,
                result.timeouts,
                result.degraded_queries,
                result.raw_bytes,
                result.goodput_bytes,
            )

        first = counters()
        assert first == counters()
        assert first[0] > 0

    def test_fault_trace_is_recorded_and_ordered(self):
        from repro.experiments.runner import Simulation

        config = SimulationConfig(
            horizon_hours=HORIZON_HOURS,
            loss_rate=0.3,
            request_timeout_seconds=30.0,
            retry_budget=1,
            backoff_base_seconds=2.0,
        )
        from repro.obs.events import FaultEvent

        simulation = Simulation(config)
        trace = []
        simulation.bus.subscribe(FaultEvent, trace.append)
        simulation.run()
        assert trace
        times = [event.time for event in trace]
        assert times == sorted(times)
        assert {event.channel for event in trace} <= {
            "uplink", "downlink", "broadcast"
        }


class TestConfigValidation:
    def test_faults_require_a_timeout(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SimulationConfig(loss_rate=0.1)

    def test_retries_require_a_timeout(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SimulationConfig(retry_budget=2)

    def test_label_mentions_faults(self):
        config = SimulationConfig(
            loss_rate=0.1, request_timeout_seconds=30.0, retry_budget=2
        )
        label = config.label()
        assert "loss=0.1" in label
        assert "retry=2" in label

    def test_result_is_picklable_for_the_pool(self):
        import pickle

        result = _run(
            loss_rate=0.2, request_timeout_seconds=30.0, retry_budget=1
        )
        clone = pickle.loads(pickle.dumps(result))
        assert clone.messages_dropped == result.messages_dropped
        assert dataclasses.asdict(clone.config) == dataclasses.asdict(
            result.config
        )
