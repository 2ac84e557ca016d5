"""Unit tests for the invalidation-report coherence baseline."""

import pytest

from repro.core.invalidation import (
    DEFAULT_IR_INTERVAL,
    InvalidationListener,
    InvalidationReport,
    WriteLog,
    broadcaster,
)
from repro.net.channel import WirelessChannel
from repro.net.message import ATTR_ID_BYTES, HEADER_BYTES, OID_BYTES
from repro.oodb.objects import OID
from repro.sim.environment import Environment


def key(n, attr=None):
    return (OID("Root", n), attr)


class TestWriteLog:
    def test_collect_returns_distinct_recent_keys(self):
        log = WriteLog()
        log.record(key(1, "a0"), 10.0)
        log.record(key(1, "a0"), 20.0)
        log.record(key(2, "a1"), 30.0)
        assert log.collect_since(5.0) == (key(1, "a0"), key(2, "a1"))

    def test_collect_prunes_old_entries(self):
        log = WriteLog()
        log.record(key(1, "a0"), 10.0)
        log.record(key(2, "a0"), 100.0)
        assert log.collect_since(50.0) == (key(2, "a0"),)
        assert len(log) == 1  # the old entry is gone

    def test_empty_log(self):
        assert WriteLog().collect_since(0.0) == ()


class TestInvalidationReport:
    def test_attribute_key_size(self):
        report = InvalidationReport(1, 0.0, (key(1, "a0"), key(2, "a1")))
        assert report.size_bytes == HEADER_BYTES + 2 * (
            OID_BYTES + ATTR_ID_BYTES
        )

    def test_object_key_size(self):
        report = InvalidationReport(1, 0.0, (key(1), key(2)))
        assert report.size_bytes == HEADER_BYTES + 2 * OID_BYTES

    def test_empty_report_is_just_header(self):
        assert InvalidationReport(1, 0.0, ()).size_bytes == HEADER_BYTES


class TestInvalidationListener:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            InvalidationListener(0.0)

    def test_no_purge_while_reports_flow(self):
        listener = InvalidationListener(1000.0)
        listener.on_report(InvalidationReport(1, 1000.0, ()))
        assert not listener.must_purge(1800.0)
        assert listener.reports_received == 1

    def test_purge_after_missed_report(self):
        listener = InvalidationListener(1000.0)
        listener.on_report(InvalidationReport(1, 1000.0, ()))
        assert listener.must_purge(2600.0)  # > 1.5 intervals later

    def test_note_purged_resets(self):
        listener = InvalidationListener(1000.0)
        listener.note_purged(5000.0)
        assert listener.cache_purges == 1
        assert not listener.must_purge(5200.0)

    def test_initial_grace_period(self):
        """Before the first report is even due, nothing is purged."""
        listener = InvalidationListener(1000.0)
        assert not listener.must_purge(1400.0)


class TestBroadcaster:
    def test_periodic_reports_with_window_contents(self):
        env = Environment()
        log = WriteLog()
        channel = WirelessChannel(env, bandwidth_bps=1e9)
        received = []
        env.process(
            broadcaster(env, log, channel, received.append, interval=100.0)
        )
        log.record(key(1, "a0"), 50.0)  # inside the first window

        def writer(env):
            yield env.timeout(150.0)
            log.record(key(2, "a0"), env.now)  # inside the second window

        env.process(writer(env))
        env.run(until=250.0)
        assert len(received) == 2
        assert received[0].keys == (key(1, "a0"),)
        assert received[1].keys == (key(2, "a0"),)
        assert received[0].sequence == 1
        assert received[1].sequence == 2

    def test_reports_occupy_the_broadcast_channel(self):
        env = Environment()
        log = WriteLog()
        channel = WirelessChannel(env)  # 19.2 kbps
        received = []
        env.process(
            broadcaster(env, log, channel, received.append,
                        interval=DEFAULT_IR_INTERVAL)
        )
        for n in range(50):
            log.record(key(n, "a0"), 1.0)
        env.run(until=1100.0)
        assert len(received) == 1
        assert channel.stats.bytes_carried == received[0].size_bytes


class TestEndToEndInvalidation:
    def test_client_cache_invalidated_by_report(self):
        from repro import SimulationConfig
        from repro.experiments.runner import Simulation

        simulation = Simulation(
            SimulationConfig(
                coherence="invalidation-report",
                ir_interval_seconds=500.0,
                update_probability=0.3,
                horizon_hours=1.0,
            )
        )
        result = simulation.run()
        reports = sum(
            c.invalidation.reports_received for c in simulation.clients
        )
        assert reports > 0
        # IR coherence keeps errors very low while connected.
        assert result.error_rate < 0.05
        # And the broadcast channel actually carried the reports.
        assert simulation.network.broadcast.stats.messages_carried > 0

    def test_refresh_time_mode_has_no_broadcasts(self):
        from repro import SimulationConfig
        from repro.experiments.runner import Simulation

        simulation = Simulation(
            SimulationConfig(coherence="refresh-time", horizon_hours=0.5)
        )
        simulation.run()
        assert simulation.network.broadcast.stats.messages_carried == 0
        assert all(c.invalidation is None for c in simulation.clients)
