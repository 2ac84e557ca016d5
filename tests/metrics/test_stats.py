"""Unit and property tests for the statistics module.

Tally (Welford), BucketedSeries, the Student-t machinery, warm-up
truncation and replication confidence intervals.
"""

import math
import pickle
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StatisticsError
from repro.metrics.stats import (
    BucketedSeries,
    MetricStats,
    Tally,
    regularized_incomplete_beta,
    replication_ci,
    t_cdf,
    t_critical,
    warmup_window,
)


def summarize(values):
    tally = Tally()
    for value in values:
        tally.record(value)
    return tally


# -- Tally -------------------------------------------------------------


def test_empty_tally_reports_zeros():
    tally = Tally()
    assert tally.count == 0
    assert tally.mean == 0.0
    assert tally.std == 0.0


def test_tally_basic_statistics():
    tally = summarize([1.0, 2.0, 3.0, 4.0])
    assert tally.count == 4
    assert tally.mean == pytest.approx(2.5)
    assert tally.variance == pytest.approx(statistics.variance([1, 2, 3, 4]))


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=2, max_size=200))
def test_tally_matches_statistics_module(values):
    tally = summarize(values)
    assert tally.mean == pytest.approx(statistics.fmean(values), abs=1e-6)
    assert tally.variance == pytest.approx(
        statistics.variance(values), rel=1e-6, abs=1e-6
    )


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
             min_size=1, max_size=50),
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
             min_size=1, max_size=50),
)
def test_tally_merge_equals_combined(first, second):
    merged = summarize(first)
    merged.merge(summarize(second))
    combined = summarize(first + second)
    assert merged.count == combined.count
    assert merged.mean == pytest.approx(combined.mean, rel=1e-9, abs=1e-6)
    assert merged.variance == pytest.approx(
        combined.variance, rel=1e-6, abs=1e-4
    )


def test_merge_with_empty_sides():
    tally = summarize([1.0, 2.0])
    tally.merge(Tally())
    assert tally.count == 2
    empty = Tally()
    empty.merge(summarize([5.0]))
    assert empty.count == 1
    assert empty.mean == 5.0


def test_tally_is_slotted_and_pickles():
    # Sweep workers ship results holding tallies between processes.
    tally = Tally("rt")
    for value in (1.0, 2.0, 4.0):
        tally.record(value)
    assert not hasattr(tally, "__dict__")
    copy = pickle.loads(pickle.dumps(tally))
    assert (copy.name, copy.count, copy.mean, copy.variance) == (
        "rt", 3, tally.mean, tally.variance
    )


def test_confidence_interval_contains_mean():
    tally = summarize([10.0, 12.0, 9.0, 11.0, 10.5])
    low, high = tally.confidence_interval(0.95)
    assert low <= tally.mean <= high
    assert high - low > 0


def test_confidence_interval_level_validation():
    # Any level strictly inside (0, 1) is legal under the Student-t
    # implementation; the boundary and beyond raise a clear error.
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(StatisticsError):
            summarize([1.0, 2.0]).confidence_interval(bad)


def test_confidence_interval_arbitrary_levels():
    tally = summarize([10.0, 12.0, 9.0, 11.0, 10.5])
    # Every level in (0, 1) works and widths are monotone in the level.
    previous = 0.0
    for level in (0.5, 0.90, 0.95, 0.99, 0.999):
        low, high = tally.confidence_interval(level)
        assert low <= tally.mean <= high
        assert (high - low) > previous
        previous = high - low


def test_confidence_interval_matches_t_machinery():
    samples = [10.0, 12.0, 9.0, 11.0, 10.5, 13.0]
    tally = summarize(samples)
    low, high = tally.confidence_interval(0.95)
    expected = replication_ci(samples, 0.95)
    assert low == pytest.approx(expected.low)
    assert high == pytest.approx(expected.high)


def test_confidence_interval_degenerate():
    tally = summarize([4.0])
    assert tally.confidence_interval() == (4.0, 4.0)


def test_confidence_interval_narrows_with_samples():
    small = summarize([10.0, 12.0, 9.0, 11.0])
    big = summarize([10.0, 12.0, 9.0, 11.0] * 25)
    s_low, s_high = small.confidence_interval(0.95)
    b_low, b_high = big.confidence_interval(0.95)
    assert (b_high - b_low) < (s_high - s_low)
    # Higher confidence level widens the interval.
    w_low, w_high = big.confidence_interval(0.99)
    assert (w_high - w_low) > (b_high - b_low)


def test_tally_handles_large_streams_stably():
    tally = Tally()
    for i in range(100_000):
        tally.record(1e9 + (i % 7))
    assert tally.mean == pytest.approx(1e9 + 3.0, abs=0.01)
    assert not math.isnan(tally.std)


# -- BucketedSeries ----------------------------------------------------


class TestBucketedSeries:
    def test_bucket_width_validation(self):
        with pytest.raises(ValueError):
            BucketedSeries(0.0)

    def test_empty_series(self):
        series = BucketedSeries(10.0)
        assert series.series() == []
        assert series.mean_between(0, 100) == 0.0
        assert (series.count, series.sum, series.mean) == (0, 0.0, 0.0)
        assert series.sparkline() == ""

    def test_bucketing(self):
        series = BucketedSeries(10.0)
        series.record(1.0, True)
        series.record(5.0, False)
        series.record(15.0, True)
        assert series.series() == [(0.0, 0.5, 2), (10.0, 1.0, 1)]
        assert (series.count, series.sum) == (3, 2.0)

    def test_mean_between(self):
        series = BucketedSeries(10.0)
        for t, success in ((1.0, True), (11.0, False), (21.0, True)):
            series.record(t, success)
        assert series.mean_between(0.0, 20.0) == pytest.approx(0.5)
        assert series.mean_between(10.0, 30.0) == pytest.approx(0.5)
        assert series.mean_between(500.0, 600.0) == 0.0

    def test_values_and_windowed_totals(self):
        series = BucketedSeries(10.0)
        for t, value in ((1.0, 2.0), (2.0, 4.0), (12.0, 9.0)):
            series.record(t, value)
        assert series.series() == [(0.0, 3.0, 2), (10.0, 9.0, 1)]
        assert series.sum_between(0.0, 10.0) == 6.0
        assert series.samples_between(0.0, 20.0) == 3
        assert series.mean == 5.0

    def test_merge(self):
        a = BucketedSeries(10.0)
        b = BucketedSeries(10.0)
        a.record(1.0, True)
        b.record(2.0, False)
        b.record(15.0, True)
        a.merge(b)
        assert a.series() == [(0.0, 0.5, 2), (10.0, 1.0, 1)]

    def test_merge_width_mismatch(self):
        with pytest.raises(ValueError):
            BucketedSeries(10.0).merge(BucketedSeries(20.0))

    def test_merge_width_mismatch_names_both_widths(self):
        with pytest.raises(ValueError, match=r"10.*20|20.*10"):
            BucketedSeries(10.0).merge(BucketedSeries(20.0))

    def test_merge_into_empty_and_from_empty(self):
        target = BucketedSeries(10.0)
        source = BucketedSeries(10.0)
        source.record(5.0, True)
        target.merge(source)
        assert target.series() == [(0.0, 1.0, 1)]
        target.merge(BucketedSeries(10.0))  # empty source: no-op
        assert target.series() == [(0.0, 1.0, 1)]

    def test_record_rejects_negative_time(self):
        series = BucketedSeries(10.0)
        with pytest.raises(ValueError, match="negative"):
            series.record(-0.5, True)
        assert series.series() == []

    def test_mean_between_uses_bucket_start_for_membership(self):
        # A sample at t=19 lands in the [10, 20) bucket; the window
        # [15, 25) only *partially* covers that bucket, but membership
        # is decided by the bucket's start time — so the sample is
        # excluded even though its raw timestamp lies inside the window.
        series = BucketedSeries(10.0)
        series.record(19.0, True)
        series.record(21.0, False)
        assert series.mean_between(15.0, 25.0) == 0.0
        assert series.mean_between(10.0, 25.0) == pytest.approx(0.5)

    def test_mean_between_empty_window(self):
        series = BucketedSeries(10.0)
        series.record(1.0, True)
        assert series.mean_between(50.0, 50.0) == 0.0

    def test_sparkline_length_and_range(self):
        series = BucketedSeries(1.0)
        for t in range(200):
            series.record(float(t), t % 3 == 0)
        line = series.sparkline(width=40)
        assert len(line) == 40

    def test_sparkline_shows_contrast(self):
        series = BucketedSeries(1.0)
        for t in range(10):
            series.record(float(t), False)
        for t in range(10, 20):
            series.record(float(t), True)
        line = series.sparkline(width=20)
        assert line[0] != line[-1]


_WIDTH = 100.0
_TIMES = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(
    samples=st.one_of(
        st.lists(st.tuples(_TIMES, st.sampled_from((0, 1))), max_size=200),
        st.lists(
            st.tuples(
                _TIMES,
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            ),
            max_size=200,
        ),
    ),
    window=st.tuples(_TIMES, _TIMES),
)
def test_series_conserves_counts(samples, window):
    series = BucketedSeries(_WIDTH)
    for time, value in samples:
        series.record(time, value)
    points = series.series()
    assert sum(count for __, __, count in points) == len(samples)
    assert series.count == len(samples)

    # Naive reference: the window keeps samples whose bucket starts in it.
    start, end = window
    inside = [
        value
        for time, value in samples
        if start <= (time // _WIDTH) * _WIDTH < end
    ]
    assert series.samples_between(start, end) == len(inside)
    values = [value for __, value in samples]
    if all(value in (0, 1) for value in values):
        # 0/1 streams: integer sums are exact, so the means are the
        # correctly rounded hits / total quotients, bit for bit.
        assert series.sum == sum(values)
        assert series.mean == (sum(values) / len(values) if values else 0.0)
        assert series.sum_between(start, end) == sum(inside)
        assert series.mean_between(start, end) == (
            sum(inside) / len(inside) if inside else 0.0
        )
        for __, ratio, __ in points:
            assert 0.0 <= ratio <= 1.0
    else:
        assert series.sum == pytest.approx(math.fsum(values), abs=1e-3)
        assert series.sum_between(start, end) == pytest.approx(
            math.fsum(inside), abs=1e-3
        )
        if inside:
            assert series.mean_between(start, end) == pytest.approx(
                math.fsum(inside) / len(inside), abs=1e-3
            )
        else:
            assert series.mean_between(start, end) == 0.0


# -- Student-t ---------------------------------------------------------


class TestIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 0.5, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 0.5, 1.0) == 1.0

    def test_symmetric_midpoint(self):
        # I_{1/2}(a, a) = 1/2 for any a.
        for a in (0.5, 1.0, 3.0, 10.0):
            assert regularized_incomplete_beta(a, a, 0.5) == pytest.approx(
                0.5, abs=1e-10
            )

    def test_monotone_in_x(self):
        values = [
            regularized_incomplete_beta(2.5, 0.5, x)
            for x in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert values == sorted(values)


class TestStudentT:
    def test_cdf_symmetry(self):
        assert t_cdf(0.0, 5) == 0.5
        assert t_cdf(1.7, 5) + t_cdf(-1.7, 5) == pytest.approx(1.0)

    def test_cdf_rejects_bad_df(self):
        with pytest.raises(StatisticsError):
            t_cdf(1.0, 0)

    def test_critical_values_match_tables(self):
        """Standard table values, the cross-check that the pure-Python
        beta/bisection path reproduces scipy.stats.t.ppf."""
        assert t_critical(1, 0.95) == pytest.approx(12.7062, abs=1e-3)
        assert t_critical(4, 0.95) == pytest.approx(2.7764, abs=1e-3)
        assert t_critical(9, 0.95) == pytest.approx(2.2622, abs=1e-3)
        assert t_critical(9, 0.99) == pytest.approx(3.2498, abs=1e-3)
        assert t_critical(29, 0.95) == pytest.approx(2.0452, abs=1e-3)
        # Large df converges to the normal quantile 1.95996.
        assert t_critical(10_000, 0.95) == pytest.approx(1.9602, abs=1e-3)

    def test_critical_rejects_bad_confidence(self):
        with pytest.raises(StatisticsError):
            t_critical(4, 0.0)
        with pytest.raises(StatisticsError):
            t_critical(4, 1.0)

    def test_critical_is_deterministic(self):
        assert t_critical(7, 0.95) == t_critical(7, 0.95)


# -- replication intervals ---------------------------------------------


class TestReplicationCI:
    def test_zero_samples_raise(self):
        with pytest.raises(StatisticsError):
            replication_ci([])

    def test_single_sample_degenerate_interval(self):
        stats = replication_ci([0.42])
        assert stats == MetricStats(
            mean=0.42, half_width=0.0, n=1, std=0.0, confidence=0.95
        )

    def test_known_half_width(self):
        # mean 3, sample std 1, n=5 -> hw = t(4, .95) / sqrt(5).
        stats = replication_ci([1.0, 2.0, 3.0, 4.0, 5.0])
        expected = t_critical(4, 0.95) * math.sqrt(2.5) / math.sqrt(5)
        assert stats.mean == 3.0
        assert stats.half_width == pytest.approx(expected)
        assert stats.low == pytest.approx(3.0 - expected)
        assert stats.high == pytest.approx(3.0 + expected)

    def test_identical_samples_zero_width(self):
        stats = replication_ci([7.0] * 10)
        assert stats.mean == 7.0
        assert stats.half_width == 0.0

    def test_formatted(self):
        assert replication_ci([1.0, 3.0]).formatted(2) == "2.00 ± 12.71"


# -- warm-up truncation ------------------------------------------------


class TestWarmupWindow:
    def test_window_bounds(self):
        assert warmup_window(3600.0, 0.25) == (900.0, 3600.0)
        assert warmup_window(3600.0, 0.0) == (0.0, 3600.0)

    def test_full_warmup_raises(self):
        with pytest.raises(StatisticsError):
            warmup_window(3600.0, 1.0)

    def test_over_full_warmup_raises(self):
        with pytest.raises(StatisticsError):
            warmup_window(3600.0, 1.5)

    def test_negative_warmup_raises(self):
        with pytest.raises(StatisticsError):
            warmup_window(3600.0, -0.1)

    def test_nonpositive_horizon_raises(self):
        with pytest.raises(StatisticsError):
            warmup_window(0.0, 0.1)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf])
    def test_nonfinite_horizon_raises(self, horizon):
        with pytest.raises(StatisticsError, match="horizon"):
            warmup_window(horizon, 0.1)
