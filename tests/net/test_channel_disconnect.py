"""Unit tests for wireless channels and disconnection schedules."""

import gc

import pytest

from repro.errors import NetworkError
from repro.net.channel import WirelessChannel
from repro.net.disconnect import DisconnectionSchedule, plan_single_windows
from repro.net.network import Network
from repro.sim.environment import Environment
from repro.sim.rand import RandomStream


class TestWirelessChannel:
    def test_default_bandwidth_is_paper_value(self):
        env = Environment()
        channel = WirelessChannel(env)
        assert channel.bandwidth_bps == pytest.approx(19_200)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(NetworkError):
            WirelessChannel(Environment(), bandwidth_bps=0)

    def test_transmission_time(self):
        env = Environment()
        channel = WirelessChannel(env)
        # 1024 bytes over 19.2 kbps = 8192 / 19200 s.
        assert channel.transmission_time(1024) == pytest.approx(
            8192 / 19_200
        )

    def test_transmit_occupies_channel_fcfs(self):
        env = Environment()
        channel = WirelessChannel(env, bandwidth_bps=8_000)  # 1 kB/s
        done = []

        def sender(env, tag, size):
            yield from channel.transmit(size)
            done.append((tag, env.now))

        env.process(sender(env, "first", 1000))
        env.process(sender(env, "second", 500))
        env.run()
        assert done == [("first", 1.0), ("second", 1.5)]
        assert channel.stats.bytes_carried == 1500
        assert channel.stats.messages_carried == 2

    def test_negative_size_rejected(self):
        env = Environment()
        channel = WirelessChannel(env)

        def sender(env):
            yield from channel.transmit(-1)

        env.process(sender(env))
        with pytest.raises(NetworkError):
            env.run()

    def test_queue_length_visible(self):
        env = Environment()
        channel = WirelessChannel(env, bandwidth_bps=8_000)
        lengths = []

        def sender(env):
            yield from channel.transmit(1000)

        def probe(env):
            yield env.timeout(0.5)
            lengths.append(channel.queue_length)

        env.process(sender(env))
        env.process(sender(env))
        env.process(sender(env))
        env.process(probe(env))
        env.run()
        assert lengths == [2]

    def test_utilization(self):
        env = Environment()
        channel = WirelessChannel(env, bandwidth_bps=8_000)

        def sender(env):
            yield from channel.transmit(1000)  # busy 1s

        env.process(sender(env))
        env.run(until=4.0)
        assert channel.utilization() == pytest.approx(0.25)

    @pytest.mark.parametrize("deadline", [None, 0.8])
    def test_collecting_a_finished_run_leaves_stats_final(self, deadline):
        """Closing a sender suspended mid-airtime books nothing.

        A run cut at its horizon leaves the sender suspended in
        ``transmit``: in the full-airtime wait without a deadline, in
        the partial-airtime wait before a 0.8 s deadline.  Collecting
        the finished simulation closes that generator by throwing
        ``GeneratorExit`` at its ``yield``.  The run's outcomes are
        final by then, so the channel statistics must not move.
        """

        def finished_run():
            env = Environment()
            channel = WirelessChannel(env, bandwidth_bps=8)  # 1 B/s

            def sender(env):
                yield from channel.transmit(1, deadline=deadline)

            env.process(sender(env))
            env.run(until=0.5)
            return channel.stats, dict(vars(channel.stats))

        stats, final = finished_run()
        gc.collect()
        assert vars(stats) == final
        assert stats.messages_aborted == 0
        assert stats.bytes_aborted == 0.0


class TestDisconnectionSchedule:
    def test_no_windows_always_connected(self):
        schedule = DisconnectionSchedule()
        assert schedule.is_connected(0, 123.0)

    def test_window_boundaries(self):
        schedule = DisconnectionSchedule({0: [(10.0, 20.0)]})
        assert schedule.is_connected(0, 9.999)
        assert not schedule.is_connected(0, 10.0)
        assert not schedule.is_connected(0, 19.999)
        assert schedule.is_connected(0, 20.0)

    def test_other_clients_unaffected(self):
        schedule = DisconnectionSchedule({0: [(10.0, 20.0)]})
        assert schedule.is_connected(1, 15.0)

    def test_multiple_windows(self):
        schedule = DisconnectionSchedule({0: [(10.0, 20.0), (30.0, 40.0)]})
        assert schedule.is_connected(0, 25.0)
        assert not schedule.is_connected(0, 35.0)

    def test_overlapping_windows_rejected(self):
        schedule = DisconnectionSchedule({0: [(10.0, 20.0)]})
        with pytest.raises(NetworkError):
            schedule.add_window(0, 15.0, 25.0)

    def test_inverted_window_rejected(self):
        with pytest.raises(NetworkError):
            DisconnectionSchedule({0: [(20.0, 10.0)]})

    def test_total_disconnected_time(self):
        schedule = DisconnectionSchedule({0: [(10.0, 20.0), (30.0, 45.0)]})
        assert schedule.total_disconnected_time(0) == pytest.approx(25.0)
        assert schedule.total_disconnected_time(1) == 0.0

    def test_disconnected_clients_listed(self):
        schedule = DisconnectionSchedule({2: [(0.0, 1.0)], 0: [(0.0, 1.0)]})
        assert schedule.disconnected_clients() == [0, 2]

    def test_construction_is_insertion_order_independent(self):
        # Regression for the REP003 fix: the constructor iterates
        # sorted(windows.items()), so the mapping's build order cannot
        # change the schedule.
        forward = DisconnectionSchedule(
            {0: [(0.0, 1.0)], 1: [(2.0, 3.0)], 2: [(4.0, 5.0)]}
        )
        backward = DisconnectionSchedule(
            {2: [(4.0, 5.0)], 1: [(2.0, 3.0)], 0: [(0.0, 1.0)]}
        )
        assert forward.disconnected_clients() == backward.disconnected_clients()
        for client_id in (0, 1, 2):
            assert forward.windows_of(client_id) == backward.windows_of(
                client_id
            )


class TestPlanSingleWindows:
    def test_one_window_per_client_within_horizon(self):
        rng = RandomStream(1, "disc")
        schedule = plan_single_windows([0, 1, 2], 100.0, 1000.0, rng)
        for client in (0, 1, 2):
            windows = schedule.windows_of(client)
            assert len(windows) == 1
            start, end = windows[0]
            assert 0.0 <= start
            assert end <= 1000.0
            assert end - start == pytest.approx(100.0)

    def test_duration_validation(self):
        rng = RandomStream(1, "disc")
        with pytest.raises(NetworkError):
            plan_single_windows([0], 0.0, 100.0, rng)
        with pytest.raises(NetworkError):
            plan_single_windows([0], 200.0, 100.0, rng)

    def test_deterministic(self):
        a = plan_single_windows([0, 1], 50.0, 500.0, RandomStream(9, "d"))
        b = plan_single_windows([0, 1], 50.0, 500.0, RandomStream(9, "d"))
        assert a.windows_of(0) == b.windows_of(0)
        assert a.windows_of(1) == b.windows_of(1)


class TestNetwork:
    def test_connectivity_uses_environment_clock(self):
        env = Environment()
        schedule = DisconnectionSchedule({0: [(5.0, 10.0)]})
        network = Network(env, schedule=schedule)
        assert network.is_connected(0)
        env._now = 7.0
        assert not network.is_connected(0)
        assert network.is_connected(0, now=12.0)

    def test_byte_counters(self):
        env = Environment()
        network = Network(env)

        def up(env):
            yield from network.uplink.transmit(100)

        env.process(up(env))
        env.run()
        assert network.bytes_upstream == 100
        assert network.bytes_downstream == 0
