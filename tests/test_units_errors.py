"""Unit tests for unit helpers and the exception hierarchy."""

import pytest

from repro import _units, errors


class TestUnits:
    def test_transmission_time(self):
        # The paper's own example: one 1024 B object over 19.2 kbps.
        assert _units.transmission_time(1024, 19_200) == pytest.approx(
            8192 / 19_200
        )

    def test_zero_bytes_is_free(self):
        assert _units.transmission_time(0, 19_200) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            _units.transmission_time(10, 0)
        with pytest.raises(ValueError):
            _units.transmission_time(-1, 19_200)

    def test_time_helpers(self):
        assert _units.hours(2) == 7200.0
        assert _units.days(1) == 86_400.0
        assert _units.HOUR * 24 == _units.DAY

    def test_bandwidth_constants(self):
        assert _units.KBPS == 1_000
        assert _units.MBPS == 1_000_000
        assert _units.BITS_PER_BYTE == 8


class TestErrorHierarchy:
    def test_all_library_errors_are_repro_errors(self):
        for name in (
            "SimulationError",
            "SchedulingError",
            "SchemaError",
            "QueryError",
            "CacheError",
            "ReplacementError",
            "NetworkError",
            "ConfigurationError",
            "TraceError",
        ):
            error_class = getattr(errors, name)
            assert issubclass(error_class, errors.ReproError)

    def test_replacement_error_is_cache_error(self):
        assert issubclass(errors.ReplacementError, errors.CacheError)

    def test_stop_simulation_is_not_a_repro_error(self):
        """User code catching ReproError must never swallow the kernel's
        control-flow signal."""
        assert not issubclass(errors.StopSimulation, errors.ReproError)

    def test_one_catch_all(self):
        try:
            raise errors.QueryError("nope")
        except errors.ReproError as caught:
            assert "nope" in str(caught)
