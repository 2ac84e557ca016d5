"""REP011–REP015 — the unit/dimension dataflow tier.

Every rule gets a good/bad fixture pair, and the bad fixture must trip
*only* its own rule (the acceptance bar for adding a rule to the tier).
The cross-module tests are the reason the tier exists: a config knob
declared in ``repro/experiments/config.py`` and consumed with the wrong
unit in ``repro/net/`` is invisible to any per-file rule.
"""

from repro.analysis import lint_paths


def ids(findings):
    return sorted({f.rule_id for f in findings})


UNIT_RULES = ["REP011", "REP012", "REP013", "REP014", "REP015"]


# ----------------------------------------------------------------------
# REP011 — arithmetic mixing incompatible units
# ----------------------------------------------------------------------
class TestIncompatibleArithmetic:
    def test_adding_bytes_to_seconds_trips_only_rep011(self, lint):
        findings = lint(
            "repro/core/mod.py",
            """\
            def deadline(delay_seconds: float, size_bytes: float) -> float:
                return delay_seconds + size_bytes
            """,
            select=UNIT_RULES,
        )
        assert ids(findings) == ["REP011"]
        assert "seconds" in findings[0].message
        assert "bytes" in findings[0].message

    def test_same_unit_arithmetic_is_clean(self, lint):
        findings = lint(
            "repro/core/mod.py",
            """\
            def total(first_seconds: float, second_seconds: float) -> float:
                return first_seconds + second_seconds
            """,
        )
        assert findings == []

    def test_bytes_times_bps_needs_the_bit_conversion(self, lint):
        findings = lint(
            "repro/net/mod.py",
            """\
            def airtime(size_bytes: float, bandwidth_bps: float) -> float:
                return size_bytes / bandwidth_bps
            """,
            select=UNIT_RULES,
        )
        assert ids(findings) == ["REP011"]
        assert "BITS_PER_BYTE" in findings[0].message

    def test_literal_scale_factors_never_flag(self, lint):
        findings = lint(
            "repro/core/mod.py",
            """\
            def double(delay_seconds: float) -> float:
                return 2.0 * delay_seconds + 0.5
            """,
        )
        assert findings == []

    def test_augmented_assignment_is_checked(self, lint):
        findings = lint(
            "repro/core/mod.py",
            """\
            def accumulate(total_seconds: float, chunk_bytes: float) -> float:
                total_seconds += chunk_bytes
                return total_seconds
            """,
            select=UNIT_RULES,
        )
        assert ids(findings) == ["REP011"]


# ----------------------------------------------------------------------
# REP012 — wall-clock reading into a sim-time parameter
# ----------------------------------------------------------------------
class TestWallClockIntoSimTime:
    # The fixtures route the wall-clock reading through an annotated
    # helper rather than calling time.time() in sim code directly, so
    # REP001 (the per-file wall-clock rule) stays out of the picture.
    def test_wall_seconds_into_sim_parameter_trips_only_rep012(self, lint):
        findings = lint(
            "repro/sim/mod.py",
            """\
            from repro._units import Seconds, WallSeconds

            def wall_elapsed() -> WallSeconds:
                return 0.0

            def schedule(delay: Seconds) -> None:
                pass

            def bad() -> None:
                schedule(wall_elapsed())
            """,
            select=UNIT_RULES,
        )
        assert ids(findings) == ["REP012"]
        assert "wall" in findings[0].message.lower()

    def test_sim_seconds_into_sim_parameter_is_clean(self, lint):
        findings = lint(
            "repro/sim/mod.py",
            """\
            from repro._units import Seconds

            def sim_now() -> Seconds:
                return 0.0

            def schedule(delay: Seconds) -> None:
                pass

            def good() -> None:
                schedule(sim_now())
            """,
        )
        assert findings == []

    def test_direct_time_module_call_is_recognised(self, lint):
        findings = lint(
            "repro/experiments/mod.py",
            """\
            import time

            from repro._units import Seconds

            def schedule(delay: Seconds) -> None:
                pass

            def bad() -> None:
                schedule(time.perf_counter())
            """,
            select=UNIT_RULES,
        )
        assert ids(findings) == ["REP012"]


# ----------------------------------------------------------------------
# REP013 — magic bandwidth/size/horizon literals
# ----------------------------------------------------------------------
class TestMagicLiterals:
    def test_bare_3600_trips_only_rep013(self, lint):
        findings = lint(
            "repro/experiments/mod.py",
            """\
            def horizon(hours: float) -> float:
                return hours * 3600.0
            """,
            select=UNIT_RULES,
        )
        assert ids(findings) == ["REP013"]
        assert "HOUR" in findings[0].message

    def test_the_unit_constant_spelling_is_clean(self, lint):
        findings = lint(
            "repro/experiments/mod.py",
            """\
            from repro._units import HOUR

            def horizon(hours: float) -> float:
                return hours * HOUR
            """,
        )
        assert findings == []

    def test_wireless_bandwidth_literal_is_flagged(self, lint):
        findings = lint(
            "repro/net/mod.py",
            """\
            BANDWIDTH = 19_200
            """,
            select=UNIT_RULES,
        )
        assert ids(findings) == ["REP013"]
        assert "KBPS" in findings[0].message

    def test_non_repro_paths_are_exempt(self, lint):
        findings = lint(
            "scripts/mod.py",
            """\
            BANDWIDTH = 19_200
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP014 — declared one unit, consumed as another
# ----------------------------------------------------------------------
class TestDeclaredMismatch:
    def test_returning_bytes_as_seconds_trips_only_rep014(self, lint):
        findings = lint(
            "repro/core/mod.py",
            """\
            from repro._units import Seconds

            def latency(payload_bytes: float) -> Seconds:
                return payload_bytes
            """,
            select=UNIT_RULES,
        )
        assert ids(findings) == ["REP014"]

    def test_returning_seconds_as_seconds_is_clean(self, lint):
        findings = lint(
            "repro/core/mod.py",
            """\
            from repro._units import Seconds

            def latency(delay_seconds: float) -> Seconds:
                return delay_seconds
            """,
        )
        assert findings == []

    def test_annotated_assignment_is_checked(self, lint):
        findings = lint(
            "repro/core/mod.py",
            """\
            from repro._units import Bytes

            def stash(delay_seconds: float) -> None:
                kept: Bytes = delay_seconds
            """,
            select=UNIT_RULES,
        )
        assert ids(findings) == ["REP014"]

    def test_suppression_with_reason_silences_the_finding(self, lint):
        findings = lint(
            "repro/core/mod.py",
            """\
            from repro._units import Seconds

            def latency(payload_bytes: float) -> Seconds:
                return payload_bytes  # repro: noqa REP014 -- suppression fixture
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP015 — comparison across unit tags
# ----------------------------------------------------------------------
class TestComparisonMismatch:
    def test_comparing_seconds_to_bytes_trips_only_rep015(self, lint):
        findings = lint(
            "repro/core/mod.py",
            """\
            def expired(deadline_seconds: float, size_bytes: float) -> bool:
                return deadline_seconds < size_bytes
            """,
            select=UNIT_RULES,
        )
        assert ids(findings) == ["REP015"]

    def test_comparing_like_quantities_is_clean(self, lint):
        findings = lint(
            "repro/core/mod.py",
            """\
            def expired(now_seconds: float, deadline_seconds: float) -> bool:
                return now_seconds >= deadline_seconds
            """,
        )
        assert findings == []

    def test_comparison_against_a_literal_is_clean(self, lint):
        findings = lint(
            "repro/core/mod.py",
            """\
            def positive(delay_seconds: float) -> bool:
                return delay_seconds > 0.0
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# Cross-module symbol resolution — the tier's reason to exist
# ----------------------------------------------------------------------
CONFIG_MODULE = """\
import dataclasses

from repro._units import Bytes, Seconds


@dataclasses.dataclass
class SimulationConfig:
    ir_interval: Seconds = 1000.0
    payload_bytes: Bytes = 512.0
"""


class TestCrossModuleResolution:
    def test_config_knob_consumed_as_wrong_unit_across_modules(
        self, lint_project
    ):
        findings = lint_project(
            {
                "repro/experiments/config.py": CONFIG_MODULE,
                "repro/net/server.py": """\
                from repro.experiments.config import SimulationConfig

                def broadcast(size_bytes: float) -> None:
                    pass

                def run(config: SimulationConfig) -> None:
                    broadcast(config.ir_interval)
                """,
            },
            select=UNIT_RULES,
        )
        assert ids(findings) == ["REP014"]
        assert findings[0].path.endswith("repro/net/server.py")

    def test_config_knob_consumed_with_matching_unit_is_clean(
        self, lint_project
    ):
        findings = lint_project(
            {
                "repro/experiments/config.py": CONFIG_MODULE,
                "repro/net/server.py": """\
                from repro.experiments.config import SimulationConfig

                def broadcast(size_bytes: float) -> None:
                    pass

                def run(config: SimulationConfig) -> None:
                    broadcast(config.payload_bytes)
                """,
            },
            select=UNIT_RULES,
        )
        assert findings == []

    def test_imported_constant_carries_its_unit_tag(self, lint_project):
        findings = lint_project(
            {
                "repro/experiments/defaults.py": """\
                from repro._units import Seconds

                TIMEOUT: Seconds = 30.0
                """,
                "repro/net/client.py": """\
                from repro.experiments.defaults import TIMEOUT

                def send(size_bytes: float) -> float:
                    return size_bytes + TIMEOUT
                """,
            },
            select=UNIT_RULES,
        )
        assert ids(findings) == ["REP011"]

    def test_dataclass_constructor_checks_keyword_units(self, lint_project):
        findings = lint_project(
            {
                "repro/experiments/config.py": CONFIG_MODULE,
                "repro/experiments/sweep.py": """\
                from repro.experiments.config import SimulationConfig

                def build(size_bytes: float) -> SimulationConfig:
                    return SimulationConfig(ir_interval=size_bytes)
                """,
            },
            select=UNIT_RULES,
        )
        assert ids(findings) == ["REP014"]

    def test_ambiguous_field_declarations_stay_silent(self, lint_project):
        # Two classes declare the same field name with different units:
        # the project index must drop it rather than guess.
        findings = lint_project(
            {
                "repro/core/first.py": """\
                import dataclasses

                from repro._units import Seconds

                @dataclasses.dataclass
                class Window:
                    span: Seconds = 1.0
                """,
                "repro/core/second.py": """\
                import dataclasses

                from repro._units import Bytes

                @dataclasses.dataclass
                class Buffer:
                    span: Bytes = 1.0
                """,
                "repro/core/use.py": """\
                from repro.core.first import Window

                def consume(size_bytes: float, window: Window) -> float:
                    return size_bytes + window.span
                """,
            },
        )
        assert findings == []


# ----------------------------------------------------------------------
# Gating: ignoring the unit ids skips the tier entirely
# ----------------------------------------------------------------------
class TestGating:
    BAD = """\
    def deadline(delay_seconds: float, size_bytes: float) -> float:
        return delay_seconds + size_bytes
    """

    def test_ignoring_the_unit_ids_drops_the_unit_rules(self, lint):
        tier = ["REP011", "REP012", "REP013", "REP014", "REP015"]
        findings = lint("repro/core/mod.py", self.BAD, ignore=tier)
        assert "REP011" not in ids(findings)

    def test_dataflow_true_is_the_default(self, lint):
        findings = lint("repro/core/mod.py", self.BAD)
        assert "REP011" in ids(findings)

    def test_select_can_name_a_dataflow_rule_directly(self, lint):
        findings = lint("repro/core/mod.py", self.BAD, select=["REP011"])
        assert ids(findings) == ["REP011"]
