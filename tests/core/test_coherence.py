"""Unit and property tests for refresh-time estimation and the oracle."""

import math
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coherence import (
    ErrorOracle,
    RefreshTimeEstimator,
    WriteIntervalStats,
)
from repro.core.entry import NEVER_EXPIRES
from repro.net.message import ReplyItem, ReplyMessage
from repro.oodb.objects import OID


class TestWriteIntervalStats:
    def test_no_writes_never_expires(self):
        stats = WriteIntervalStats()
        assert math.isinf(stats.refresh_time(beta=0.0))

    def test_single_write_still_no_estimate(self):
        stats = WriteIntervalStats()
        stats.record_write(10.0)
        assert stats.interval_count == 0
        assert math.isinf(stats.refresh_time(beta=0.0))

    def test_refresh_time_is_mean_plus_beta_std(self):
        stats = WriteIntervalStats()
        for t in (0.0, 100.0, 300.0):  # gaps 100, 200
            stats.record_write(t)
        mean = 150.0
        std = statistics.stdev([100.0, 200.0])
        assert stats.refresh_time(0.0) == pytest.approx(mean)
        assert stats.refresh_time(1.0) == pytest.approx(mean + std)
        assert stats.refresh_time(-1.0) == pytest.approx(mean - std)

    def test_negative_estimate_clamped_to_zero(self):
        stats = WriteIntervalStats()
        for t in (0.0, 1.0, 101.0):  # gaps 1, 100: std > mean
            stats.record_write(t)
        assert stats.refresh_time(-2.0) == 0.0

    def test_out_of_order_write_clamped(self):
        stats = WriteIntervalStats()
        stats.record_write(10.0)
        stats.record_write(5.0)  # defensive: gap clamps to 0
        assert stats.refresh_time(0.0) == 0.0


def deadline(estimator: RefreshTimeEstimator, key, now: float) -> float:
    """The client-side expiry of an item stamped with ``key``'s refresh
    time and received at ``now``."""
    item = ReplyItem(
        oid=OID("Root", 0),
        attribute="a0",
        value=0,
        version=0,
        refresh_time=estimator.refresh_time(key),
        payload_bytes=8,
    )
    return ReplyMessage(client_id=0, query_id=0, items=(item,)).expiry_deadline(
        item, now
    )


class TestRefreshTimeEstimator:
    def test_unknown_item_never_expires(self):
        estimator = RefreshTimeEstimator(beta=0.0)
        assert estimator.refresh_time("item") == NEVER_EXPIRES
        assert deadline(estimator, "item", now=5.0) == NEVER_EXPIRES

    def test_deadline_adds_refresh_to_now(self):
        estimator = RefreshTimeEstimator(beta=0.0)
        for t in (0.0, 50.0, 100.0):
            estimator.record_write("x", t)
        assert deadline(estimator, "x", now=200.0) == pytest.approx(250.0)

    def test_items_tracked_independently(self):
        estimator = RefreshTimeEstimator(beta=0.0)
        for t in (0.0, 10.0, 20.0):
            estimator.record_write("fast", t)
        for t in (0.0, 1000.0, 2000.0):
            estimator.record_write("slow", t)
        assert estimator.refresh_time("fast") == pytest.approx(10.0)
        assert estimator.refresh_time("slow") == pytest.approx(1000.0)

    def test_beta_monotonicity(self):
        """Larger beta must never shorten the refresh time."""
        times = [0.0, 30.0, 90.0, 95.0, 200.0]
        estimates = []
        for beta in (-1.0, 0.0, 1.0):
            estimator = RefreshTimeEstimator(beta=beta)
            for t in times:
                estimator.record_write("x", t)
            estimates.append(estimator.refresh_time("x"))
        assert estimates == sorted(estimates)


@settings(max_examples=50, deadline=None)
@given(
    gaps=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=100,
    ),
    beta=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_refresh_matches_statistics_module(gaps, beta):
    stats = WriteIntervalStats()
    clock = 0.0
    stats.record_write(clock)
    for gap in gaps:
        clock += gap
        stats.record_write(clock)
    expected = max(
        0.0,
        statistics.fmean(gaps) + beta * statistics.stdev(gaps),
    )
    assert stats.refresh_time(beta) == pytest.approx(
        expected, rel=1e-6, abs=1e-6
    )


def fold_refresh_time(gaps: list[float], beta: float) -> float:
    """From scratch: ``max(0, mean + beta * std)`` of the gaps, folded
    in order with Welford's recurrence (the sample std), or infinity
    before the first gap."""
    if not gaps:
        return math.inf
    mean = m2 = 0.0
    for count, gap in enumerate(gaps, start=1):
        delta = gap - mean
        mean += delta / count
        m2 += delta * (gap - mean)
    std = math.sqrt(m2 / (len(gaps) - 1)) if len(gaps) > 1 else 0.0
    return max(0.0, mean + beta * std)


# Instants repeat on purpose: equal write times make zero gaps.
write_steps = st.lists(
    st.tuples(
        st.sampled_from(["k0", "k1", "k2"]),
        st.one_of(st.just(0.0), st.floats(0.0, 500.0)),
    ),
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(beta=st.sampled_from([-1.0, 0.0, 1.5]), steps=write_steps)
def test_table_matches_a_fold_of_the_gaps(beta, steps):
    """After every write each key's refresh time equals a fold of its
    gaps bit for bit, and the two-pass ``statistics`` answer closely; a
    key never written reads infinity."""
    estimator = RefreshTimeEstimator(beta=beta)
    writes: dict[str, list[float]] = {}
    clock = 0.0
    for key, step in steps:
        clock += step
        estimator.record_write(key, clock)
        writes.setdefault(key, []).append(clock)
        for other in ("k0", "k1", "k2", "never"):
            times = writes.get(other, [])
            gaps = [b - a for a, b in zip(times, times[1:], strict=False)]
            expected = fold_refresh_time(gaps, beta)
            assert estimator.refresh_time(other) == expected
            if len(gaps) > 1:
                assert expected == pytest.approx(
                    max(
                        0.0,
                        statistics.fmean(gaps)
                        + beta * statistics.stdev(gaps),
                    ),
                    rel=1e-9,
                    abs=1e-9,
                )
    assert estimator.refresh_time("never") == NEVER_EXPIRES
    assert "never" not in estimator.times


class TestErrorOracle:
    def test_equal_versions_not_stale(self):
        assert not ErrorOracle.is_stale(3, 3)

    def test_older_version_stale(self):
        assert ErrorOracle.is_stale(2, 3)

    def test_cached_newer_than_server_is_a_bug(self):
        with pytest.raises(ValueError):
            ErrorOracle.is_stale(4, 3)
