"""Unit tests for heat distributions."""

import contextlib
import signal

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import Simulation
from repro.oodb.objects import OID
from repro.sim.rand import RandomStream
from repro.workload.heat import (
    ChangingSkewedHeat,
    CyclicHeat,
    SequentialScanHeat,
    ShiftingHotspotHeat,
    SkewedHeat,
    UniformHeat,
    ZipfHeat,
)


def oids(n=100):
    return [OID("Root", i) for i in range(n)]


@contextlib.contextmanager
def deadline(seconds):
    """Fail, instead of hanging, when the block outlasts ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestUniformHeat:
    def test_selects_distinct(self):
        heat = UniformHeat(oids(), RandomStream(1, "h"))
        picks = heat.select_objects(0, 10)
        assert len(set(picks)) == 10

    def test_rejects_overselection(self):
        heat = UniformHeat(oids(5), RandomStream(1, "h"))
        with pytest.raises(ConfigurationError):
            heat.select_objects(0, 6)

    def test_rejects_empty_population(self):
        with pytest.raises(ConfigurationError):
            UniformHeat([], RandomStream(1, "h"))


class TestSkewedHeat:
    def test_hot_set_size(self):
        heat = SkewedHeat(oids(100), RandomStream(1, "h"), hot_fraction=0.2)
        assert len(heat.hot_set) == 20

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            SkewedHeat(oids(), RandomStream(1, "h"), hot_fraction=0.0)
        with pytest.raises(ConfigurationError):
            SkewedHeat(
                oids(), RandomStream(1, "h"), hot_access_probability=1.5
            )
        # 0.9999 of 100 objects rounds to all 100: no cold object is left
        # for the cold draws.
        for heat in (SkewedHeat, ChangingSkewedHeat, SequentialScanHeat):
            with pytest.raises(ConfigurationError, match="hot_fraction"):
                heat(oids(), RandomStream(1, "h"), hot_fraction=0.9999)

    def test_80_20_rule_holds_statistically(self):
        heat = SkewedHeat(oids(200), RandomStream(7, "h"))
        hot = heat.hot_set
        hot_picks = 0
        total = 0
        for q in range(500):
            for oid in heat.select_objects(q, 10):
                total += 1
                hot_picks += oid in hot
        assert hot_picks / total == pytest.approx(0.8, abs=0.05)

    def test_distinct_within_query(self):
        heat = SkewedHeat(oids(50), RandomStream(3, "h"))
        picks = heat.select_objects(0, 20)
        assert len(set(picks)) == 20

    def test_different_seeds_different_hot_sets(self):
        a = SkewedHeat(oids(200), RandomStream(1, "a"))
        b = SkewedHeat(oids(200), RandomStream(1, "b"))
        assert a.hot_set != b.hot_set

    def test_degenerate_skew_completes(self):
        """Extreme configs fall back to deterministic fill, not a hang."""
        heat = SkewedHeat(
            oids(30),
            RandomStream(1, "h"),
            hot_fraction=0.05,  # one hot object
            hot_access_probability=1.0,
        )
        picks = heat.select_objects(0, 10)
        assert len(set(picks)) == 10


class TestChangingSkewedHeat:
    def test_hot_set_changes_at_interval(self):
        heat = ChangingSkewedHeat(
            oids(200), RandomStream(5, "h"), change_every=10
        )
        before = heat.hot_set
        for q in range(10):
            heat.select_objects(q, 5)
        heat.select_objects(10, 5)  # crosses the era boundary
        assert heat.hot_set != before

    def test_hot_set_stable_within_era(self):
        heat = ChangingSkewedHeat(
            oids(200), RandomStream(5, "h"), change_every=100
        )
        before = heat.hot_set
        for q in range(50):
            heat.select_objects(q, 5)
        assert heat.hot_set == before

    def test_change_interval_validation(self):
        with pytest.raises(ConfigurationError):
            ChangingSkewedHeat(oids(), RandomStream(1, "h"), change_every=0)

    def test_describe_includes_rate(self):
        heat = ChangingSkewedHeat(
            oids(), RandomStream(1, "h"), change_every=300
        )
        assert heat.describe() == "CSH-300"


class TestCyclicHeat:
    def test_scan_covers_database_in_order(self):
        population = oids(40)
        heat = CyclicHeat(
            population, RandomStream(1, "h"), scan_fraction=1.0
        )
        first = heat.select_objects(0, 10)
        second = heat.select_objects(1, 10)
        assert first == sorted(population)[:10]
        assert second == sorted(population)[10:20]

    def test_scan_wraps_around(self):
        population = oids(20)
        heat = CyclicHeat(
            population, RandomStream(1, "h"), scan_fraction=1.0
        )
        heat.select_objects(0, 15)
        wrapped = heat.select_objects(1, 15)
        # Cursor wrapped: the second query re-references early objects.
        assert sorted(population)[0] in wrapped

    def test_mixes_hot_and_scan(self):
        heat = CyclicHeat(
            oids(100), RandomStream(2, "h"),
            hot_fraction=0.2, scan_fraction=0.5,
        )
        picks = heat.select_objects(0, 10)
        assert len(set(picks)) == 10
        hot_picks = sum(1 for oid in picks if oid in heat.hot_set)
        assert hot_picks >= 3  # roughly half, minus scan/hot collisions

    def test_scan_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            CyclicHeat(oids(), RandomStream(1, "h"), scan_fraction=1.5)

    def test_hot_fraction_validation(self):
        for hot_fraction in (0.0, 1.5, 0.9999):
            with pytest.raises(ConfigurationError, match="hot_fraction"):
                CyclicHeat(
                    oids(), RandomStream(1, "h"), hot_fraction=hot_fraction
                )

    def test_more_hot_picks_than_hot_objects_fall_back(self):
        """60 objects hold 12 hot ones, but a 20-object query makes 14
        non-scan picks: after 50 draws per pick the query finishes with
        the unchosen objects in OID order instead of redrawing forever."""
        population = oids(60)
        heat = CyclicHeat(population, RandomStream(1, "h"))
        with deadline(10):
            picks = heat.select_objects(0, 20)
        assert len(set(picks)) == 20
        assert picks[:6] == population[:6]  # the scan's share
        drawn = picks[: 6 + len(heat.hot_set - set(population[:6]))]
        assert heat.hot_set <= set(drawn)
        assert picks[len(drawn):] == [
            oid for oid in population if oid not in drawn
        ][: 20 - len(drawn)]


class TestSequentialScanHeat:
    def test_scan_queries_walk_in_oid_order(self):
        population = oids(40)
        heat = SequentialScanHeat(
            population, RandomStream(1, "h"), scan_every=5
        )
        first = heat.select_objects(0, 10)  # index 0: a scan query
        second = heat.select_objects(5, 10)  # next scan continues
        assert first == sorted(population)[:10]
        assert second == sorted(population)[10:20]

    def test_non_scan_queries_sample_skewed(self):
        heat = SequentialScanHeat(
            oids(200), RandomStream(7, "h"), scan_every=5
        )
        hot = heat.hot_set
        hot_picks = total = 0
        for q in range(1, 500):
            if q % 5 == 0:
                continue
            for oid in heat.select_objects(q, 10):
                total += 1
                hot_picks += oid in hot
        assert hot_picks / total == pytest.approx(0.8, abs=0.05)

    def test_scan_cursor_wraps(self):
        population = oids(15)
        heat = SequentialScanHeat(
            population, RandomStream(1, "h"), scan_every=1
        )
        heat.select_objects(0, 10)
        wrapped = heat.select_objects(1, 10)
        assert sorted(population)[0] in wrapped

    def test_interval_validation(self):
        with pytest.raises(ConfigurationError):
            SequentialScanHeat(oids(), RandomStream(1, "h"), scan_every=0)

    def test_describe(self):
        heat = SequentialScanHeat(oids(), RandomStream(1, "h"), scan_every=7)
        assert heat.describe() == "scan-7"


class TestZipfHeat:
    def test_selects_distinct(self):
        heat = ZipfHeat(oids(100), RandomStream(1, "h"))
        picks = heat.select_objects(0, 20)
        assert len(set(picks)) == 20

    def test_head_ranks_dominate(self):
        """The top-10% ranked objects must draw far more than 10%."""
        heat = ZipfHeat(oids(200), RandomStream(9, "h"), s=0.99)
        head = set(heat._ranked[:20])
        head_picks = total = 0
        for q in range(500):
            for oid in heat.select_objects(q, 10):
                total += 1
                head_picks += oid in head
        assert head_picks / total > 0.3

    def test_rankings_differ_per_stream(self):
        a = ZipfHeat(oids(100), RandomStream(1, "a"))
        b = ZipfHeat(oids(100), RandomStream(1, "b"))
        assert a._ranked != b._ranked

    def test_deterministic_for_stream(self):
        def run():
            heat = ZipfHeat(oids(100), RandomStream(3, "h"))
            return [heat.select_objects(q, 5) for q in range(20)]

        assert run() == run()

    def test_exponent_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfHeat(oids(), RandomStream(1, "h"), s=0.0)
        with pytest.raises(ConfigurationError):
            ZipfHeat(oids(), RandomStream(1, "h"), s=-1.0)

    def test_extreme_skew_completes(self):
        heat = ZipfHeat(oids(30), RandomStream(1, "h"), s=5.0)
        picks = heat.select_objects(0, 20)
        assert len(set(picks)) == 20

    def test_describe(self):
        heat = ZipfHeat(oids(), RandomStream(1, "h"), s=0.99)
        assert heat.describe() == "zipf-0.99"


class TestShiftingHotspotHeat:
    def test_hot_window_is_contiguous(self):
        heat = ShiftingHotspotHeat(
            oids(100), RandomStream(4, "h"), shift_every=50
        )
        ordered = sorted(oids(100))
        indices = sorted(ordered.index(o) for o in heat.hot_set)
        n, width = len(ordered), len(indices)
        # Contiguity modulo wrap-around: consecutive indices differ by
        # one except at most a single wrap gap.
        gaps = [
            (indices[(i + 1) % width] - indices[i]) % n
            for i in range(width)
        ]
        assert sorted(gaps)[:-1] == [1] * (width - 1)

    def test_hotspot_slides_at_interval_with_overlap(self):
        heat = ShiftingHotspotHeat(
            oids(200), RandomStream(5, "h"), shift_every=10
        )
        before = heat.hot_set
        heat.select_objects(10, 5)  # crosses the era boundary
        after = heat.hot_set
        assert after != before
        # Slides by half its width: successive hot sets overlap.
        assert before & after

    def test_stable_within_era(self):
        heat = ShiftingHotspotHeat(
            oids(200), RandomStream(5, "h"), shift_every=100
        )
        before = heat.hot_set
        for q in range(50):
            heat.select_objects(q, 5)
        assert heat.hot_set == before

    def test_long_gap_slides_once_per_era(self):
        """Crossing many eras at once slides by step * eras, not one."""
        a = ShiftingHotspotHeat(
            oids(100), RandomStream(6, "h"), shift_every=10
        )
        b = ShiftingHotspotHeat(
            oids(100), RandomStream(6, "h"), shift_every=10
        )
        a.select_objects(30, 1)  # jumps three eras
        for q in (10, 20, 30):  # walks the same three boundaries
            b.select_objects(q, 1)
        assert a.hot_set == b.hot_set

    def test_hot_bias_holds(self):
        heat = ShiftingHotspotHeat(
            oids(200), RandomStream(8, "h"), shift_every=10_000
        )
        hot = heat.hot_set
        hot_picks = total = 0
        for q in range(500):
            for oid in heat.select_objects(q, 10):
                total += 1
                hot_picks += oid in hot
        assert hot_picks / total == pytest.approx(0.8, abs=0.05)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            ShiftingHotspotHeat(oids(), RandomStream(1, "h"), shift_every=0)
        for hot_fraction in (1.0, 0.9999):
            with pytest.raises(ConfigurationError, match="hot_fraction"):
                ShiftingHotspotHeat(
                    oids(), RandomStream(1, "h"), hot_fraction=hot_fraction
                )

    def test_describe(self):
        heat = ShiftingHotspotHeat(
            oids(), RandomStream(1, "h"), shift_every=250
        )
        assert heat.describe() == "hotspot-250"


@pytest.mark.parametrize(
    "heat, hot_fraction",
    [
        ("SH", 0.9999),
        ("CSH", 0.9999),
        ("scan", 0.9999),
        ("hotspot", 0.9999),
        ("cyclic", 0.9999),
        ("cyclic", 1.5),
        ("cyclic", 0.0),
    ],
)
def test_simulation_rejects_hot_fraction_without_cold_objects(
    heat, hot_fraction
):
    """A ConfigurationError, not an IndexError at the first cold draw or
    a ValueError from the hot-set sample.  The config rejects a fraction
    outside (0, 1) itself; one inside that leaves no cold object among
    the database's objects fails when the run is built."""
    with pytest.raises(ConfigurationError, match="hot_fraction"):
        config = SimulationConfig(
            heat=heat, hot_fraction=hot_fraction, num_clients=2,
            horizon_hours=0.5,
        )
        Simulation(config)
