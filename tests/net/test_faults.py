"""Unit tests for the fault-injection layer and recovery policy."""

import pytest

from repro.errors import NetworkError
from repro.net.channel import ABORTED, DELIVERED, DROPPED, WirelessChannel
from repro.net.disconnect import DisconnectionSchedule
from repro.net.faults import (
    BAD,
    FaultConfig,
    FaultEvent,
    FaultInjector,
    KIND_ABORT,
    KIND_BURST_ENTER,
    KIND_DROP,
    RecoveryPolicy,
)
from repro.net.network import Network
from repro.obs.bus import EventBus
from repro.sim.environment import Environment
from repro.sim.rand import RandomStream


def recorded(bus):
    """The fault events ``bus`` carries from now on, as they fire."""
    events = []
    bus.subscribe(FaultEvent, events.append)
    return events


class TestFaultConfig:
    def test_all_zero_is_disabled(self):
        assert not FaultConfig().enabled

    def test_loss_rate_enables(self):
        assert FaultConfig(loss_rate=0.1).enabled

    def test_burst_enables(self):
        config = FaultConfig(
            burst_on_probability=0.1, burst_off_probability=0.5
        )
        assert config.enabled
        assert config.uses_burst_model

    def test_probabilities_validated(self):
        with pytest.raises(NetworkError):
            FaultConfig(loss_rate=1.5)
        with pytest.raises(NetworkError):
            FaultConfig(burst_loss_rate=-0.1)

    def test_burst_needs_exit_probability(self):
        with pytest.raises(NetworkError):
            FaultConfig(burst_on_probability=0.1)


class TestFaultInjector:
    def test_deterministic_for_a_seed(self):
        config = FaultConfig(loss_rate=0.3)

        def decisions():
            injector = FaultInjector(
                config, RandomStream(7, "faults"), channel="up"
            )
            return [injector.should_drop(float(i), 100) for i in range(50)]

        assert decisions() == decisions()

    def test_drop_rate_roughly_matches(self):
        injector = FaultInjector(
            FaultConfig(loss_rate=0.2), RandomStream(3, "f")
        )
        drops = sum(
            injector.should_drop(float(i), 10) for i in range(2000)
        )
        assert 0.15 < drops / 2000 < 0.25

    def test_trace_records_drops(self):
        injector = FaultInjector(
            FaultConfig(loss_rate=1.0), RandomStream(1, "f"), channel="dl"
        )
        events = recorded(injector.bus)
        assert injector.should_drop(5.0, 123)
        [event] = events
        assert event.kind == KIND_DROP
        assert event.time == 5.0
        assert event.channel == "dl"
        assert event.size_bytes == 123

    def test_burst_chain_enters_and_drops(self):
        config = FaultConfig(
            burst_loss_rate=1.0,
            burst_on_probability=1.0,
            burst_off_probability=1e-9,
        )
        injector = FaultInjector(config, RandomStream(2, "f"))
        events = recorded(injector.bus)
        assert injector.should_drop(0.0, 10)
        assert injector.state == BAD
        assert [event.kind for event in events] == [
            KIND_BURST_ENTER, KIND_DROP
        ]

    def test_good_state_loss_rate_zero_never_drops(self):
        config = FaultConfig(
            loss_rate=0.0,
            burst_loss_rate=1.0,
            burst_on_probability=1e-12,
            burst_off_probability=1.0,
        )
        injector = FaultInjector(config, RandomStream(4, "f"))
        assert not any(
            injector.should_drop(float(i), 1) for i in range(200)
        )

    def test_note_abort_recorded(self):
        injector = FaultInjector(
            FaultConfig(loss_rate=0.5), RandomStream(1, "f")
        )
        events = recorded(injector.bus)
        injector.note_abort(2.5, 400)
        assert events == [
            FaultEvent(time=2.5, channel="channel", kind=KIND_ABORT,
                       size_bytes=400)
        ]

    def test_merged_trace_time_ordered(self):
        """Channels sharing a bus give one subscriber one merged trace,
        in the order the faults fired."""
        config = FaultConfig(loss_rate=1.0)
        bus = EventBus()
        events = recorded(bus)
        a = FaultInjector(config, RandomStream(1, "a"), channel="a", bus=bus)
        b = FaultInjector(config, RandomStream(1, "b"), channel="b", bus=bus)
        b.should_drop(1.0, 1)
        a.should_drop(2.0, 1)
        a.should_drop(3.0, 1)
        assert [(e.time, e.channel) for e in events] == [
            (1.0, "b"), (2.0, "a"), (3.0, "a")
        ]


class TestFaultyChannel:
    def _channel(self, loss_rate, seed=11):
        env = Environment()
        injector = FaultInjector(
            FaultConfig(loss_rate=loss_rate),
            RandomStream(seed, "f"),
            channel="up",
        )
        return env, WirelessChannel(
            env, bandwidth_bps=8_000, injector=injector
        )

    def test_certain_loss_yields_dropped(self):
        env, channel = self._channel(1.0)
        outcomes = []

        def sender(env):
            outcome = yield from channel.transmit(1000)
            outcomes.append((outcome, env.now))

        env.process(sender(env))
        env.run()
        # The message still burned its full airtime before being lost.
        assert outcomes == [(DROPPED, 1.0)]
        assert channel.stats.bytes_carried == 1000
        assert channel.stats.bytes_delivered == 0
        assert channel.stats.messages_dropped == 1

    def test_no_loss_yields_delivered(self):
        env, channel = self._channel(0.0)
        outcomes = []

        def sender(env):
            outcome = yield from channel.transmit(1000)
            outcomes.append(outcome)

        env.process(sender(env))
        env.run()
        assert outcomes == [DELIVERED]
        assert channel.stats.bytes_delivered == 1000

    def test_deadline_aborts_before_completion(self):
        env, channel = self._channel(0.0)
        events = recorded(channel.injector.bus)
        outcomes = []

        def sender(env):
            # 1000 B at 1 kB/s takes 1 s; the deadline cuts it at 0.4 s.
            outcome = yield from channel.transmit(1000, deadline=0.4)
            outcomes.append((outcome, env.now))

        env.process(sender(env))
        env.run()
        assert outcomes == [(ABORTED, 0.4)]
        assert channel.stats.messages_aborted == 1
        assert channel.stats.bytes_aborted == pytest.approx(400.0)
        assert channel.stats.bytes_carried == 0
        assert [event.kind for event in events] == [KIND_ABORT]

    def test_past_deadline_aborts_instantly(self):
        env, channel = self._channel(0.0)
        outcomes = []

        def sender(env):
            yield env.timeout(5.0)
            outcome = yield from channel.transmit(1000, deadline=2.0)
            outcomes.append((outcome, env.now))

        env.process(sender(env))
        env.run()
        assert outcomes == [(ABORTED, 5.0)]
        assert channel.stats.bytes_aborted == 0.0


class TestNetworkFaults:
    def test_faults_need_rng(self):
        with pytest.raises(NetworkError):
            Network(Environment(), faults=FaultConfig(loss_rate=0.5))

    def test_disabled_config_means_no_injectors(self):
        network = Network(
            Environment(),
            faults=FaultConfig(),
            fault_rng=RandomStream(1, "f"),
        )
        assert not network.faults_enabled
        assert all(c.injector is None for c in network.channels())

    def test_channels_get_independent_injectors(self):
        network = Network(
            Environment(),
            faults=FaultConfig(loss_rate=0.5),
            fault_rng=RandomStream(1, "f"),
        )
        injectors = [c.injector for c in network.channels()]
        assert all(i is not None for i in injectors)
        assert len({id(i.rng) for i in injectors}) == 3

    def test_abort_deadline_off_without_faults(self):
        env = Environment()
        schedule = DisconnectionSchedule({0: [(5.0, 10.0)]})
        network = Network(env, schedule=schedule)
        assert network.abort_deadline(0) is None

    def test_abort_deadline_is_next_window_start(self):
        env = Environment()
        schedule = DisconnectionSchedule({0: [(5.0, 10.0)]})
        network = Network(
            env,
            schedule=schedule,
            faults=FaultConfig(loss_rate=0.5),
            fault_rng=RandomStream(1, "f"),
        )
        assert network.abort_deadline(0) == 5.0
        assert network.abort_deadline(1) is None
        env._now = 7.0  # inside the window: cut immediately
        assert network.abort_deadline(0) == 7.0
        env._now = 12.0
        assert network.abort_deadline(0) is None


class TestRecoveryPolicy:
    def test_validation(self):
        with pytest.raises(NetworkError):
            RecoveryPolicy(timeout_seconds=0.0)
        with pytest.raises(NetworkError):
            RecoveryPolicy(timeout_seconds=10.0, retry_budget=-1)
        with pytest.raises(NetworkError):
            RecoveryPolicy(timeout_seconds=10.0, backoff_multiplier=0.5)
        with pytest.raises(NetworkError):
            RecoveryPolicy(timeout_seconds=10.0, backoff_jitter=2.0)

    def test_max_attempts(self):
        assert RecoveryPolicy(timeout_seconds=1.0).max_attempts == 1
        assert (
            RecoveryPolicy(timeout_seconds=1.0, retry_budget=3).max_attempts
            == 4
        )

    def test_backoff_grows_exponentially(self):
        policy = RecoveryPolicy(
            timeout_seconds=1.0,
            backoff_base_seconds=2.0,
            backoff_multiplier=3.0,
            backoff_jitter=0.0,
        )
        rng = RandomStream(1, "b")
        assert policy.backoff_delay(0, rng) == pytest.approx(2.0)
        assert policy.backoff_delay(1, rng) == pytest.approx(6.0)
        assert policy.backoff_delay(2, rng) == pytest.approx(18.0)

    def test_jitter_stays_bounded_and_seeded(self):
        policy = RecoveryPolicy(
            timeout_seconds=1.0,
            backoff_base_seconds=10.0,
            backoff_multiplier=2.0,
            backoff_jitter=0.5,
        )
        delays = [
            policy.backoff_delay(0, RandomStream(s, "b")) for s in range(30)
        ]
        assert all(10.0 <= d <= 15.0 for d in delays)
        again = [
            policy.backoff_delay(0, RandomStream(s, "b")) for s in range(30)
        ]
        assert delays == again
