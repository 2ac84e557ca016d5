"""Unit tests for SimulationConfig validation and helpers."""

import math

import pytest

from repro._units import HOUR, MBPS
from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import Simulation


class TestValidation:
    def test_defaults_are_valid(self):
        SimulationConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("granularity", "XX"),
            ("query_kind", "ZQ"),
            ("arrival", "weekly"),
            ("heat", "volcanic"),
            ("update_probability", 1.5),
            ("update_probability", -0.1),
            ("num_clients", 0),
            ("num_objects", 1),
            ("selectivity", 0),
            ("selectivity", 99999),
            ("horizon_hours", 0.0),
            ("arrival_rate", 0.0),
            ("wireless_bps", 0),
            ("server_buffer_objects", 0),
            ("client_cache_objects", 0),
            ("client_buffer_objects", 0),
            ("disconnected_clients", 11),
        ],
    )
    def test_invalid_value_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            SimulationConfig(**{field: value})

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"hot_access_probability": 1.5}, "hot_access_probability"),
            ({"hot_fraction": 1.5}, "hot_fraction"),
            ({"cyclic_scan_fraction": 2.0}, "cyclic_scan_fraction"),
            ({"heat": "zipf", "hot_fraction": 7.0}, "hot_fraction"),
            ({"hot_fraction": 0.0}, "hot_fraction"),
            ({"hot_access_probability": -0.1}, "hot_access_probability"),
            ({"csh_change_every": 0}, "csh_change_every"),
        ],
    )
    def test_heat_fields_checked_whatever_the_heat(self, overrides, field):
        # Rejected at construction, not later when a sweep's worker
        # builds the heat.
        with pytest.raises(ConfigurationError, match=field):
            SimulationConfig(**overrides)

    @pytest.mark.parametrize("hours", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_horizon_is_reported_before_other_checks(self, hours):
        # A disconnection that would "exceed" a negative horizon must
        # not mask the real problem.
        with pytest.raises(ConfigurationError, match="horizon"):
            SimulationConfig(
                horizon_hours=hours,
                disconnected_clients=1,
                disconnection_hours=1.0,
            )

    @pytest.mark.parametrize(
        "field", ["beta", "update_probability", "zipf_s", "arrival_rate"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_float_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SimulationConfig(**{field: value})

    def test_disconnection_requires_duration(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(disconnected_clients=3)

    def test_disconnection_must_fit_horizon(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                disconnected_clients=3,
                disconnection_hours=10.0,
                horizon_hours=5.0,
            )

    def test_valid_disconnection(self):
        config = SimulationConfig(
            disconnected_clients=3, disconnection_hours=2.0
        )
        assert config.disconnection_seconds == pytest.approx(2 * HOUR)


class TestHelpers:
    def test_horizon_seconds(self):
        assert SimulationConfig(
            horizon_hours=2.0
        ).horizon_seconds == pytest.approx(7200.0)

    def test_replaced_returns_validated_copy(self):
        base = SimulationConfig()
        changed = base.replaced(granularity="OC")
        assert changed.granularity == "OC"
        assert base.granularity == "HC"
        with pytest.raises(ConfigurationError):
            base.replaced(granularity="nope")

    def test_label_mentions_key_dimensions(self):
        label = SimulationConfig(
            granularity="AC",
            replacement="lru",
            disconnected_clients=3,
            disconnection_hours=5.0,
        ).label()
        assert "AC" in label
        assert "lru" in label
        assert "V=3" in label

    def test_table_rows_cover_every_field(self):
        config = SimulationConfig()
        rows = dict(config.as_table_rows())
        assert rows["granularity"] == "HC"
        assert "wireless_bps" in rows


class TestExtensionKnobs:
    def test_page_granularity_accepted(self):
        config = SimulationConfig(granularity="PC", objects_per_page=8)
        assert config.objects_per_page == 8

    def test_objects_per_page_validated(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(objects_per_page=0)

    def test_coherence_mode_validated(self):
        SimulationConfig(coherence="invalidation-report")
        with pytest.raises(ConfigurationError):
            SimulationConfig(coherence="magic")

    def test_ir_interval_validated(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(ir_interval_seconds=0.0)

    def test_trailer_threshold_optional(self):
        config = SimulationConfig(trailer_drop_queue_threshold=3)
        assert config.trailer_drop_queue_threshold == 3
        assert SimulationConfig().trailer_drop_queue_threshold is None


class TestStorageRates:
    def test_built_media_carry_the_configured_rates(self):
        config = SimulationConfig(
            num_clients=2, disk_bps=12e6, memory_bps=34e6
        )
        simulation = Simulation(config)
        storages = [simulation.server.storage] + [
            client.local_storage for client in simulation.clients
        ]
        for storage in storages:
            assert storage.disk_bandwidth_bps == 12e6
            assert storage.memory_bandwidth_bps == 34e6
            with pytest.raises(AttributeError):
                storage.disk_bandwidth_bps = 1.0
            with pytest.raises(AttributeError):
                storage.memory_bandwidth_bps = 1.0

    def test_defaults_are_the_paper_rates(self):
        simulation = Simulation(SimulationConfig(num_clients=1))
        for storage in (
            simulation.server.storage,
            simulation.clients[0].local_storage,
        ):
            assert storage.disk_bandwidth_bps == 40 * MBPS
            assert storage.memory_bandwidth_bps == 100 * MBPS
