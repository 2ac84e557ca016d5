"""Unit tests for metric collectors and summaries."""

import pytest

from repro.metrics.collectors import ClientMetrics, MetricsSummary


def make_client(client_id=0, accesses=(), queries=()):
    metrics = ClientMetrics(client_id)
    for now, (is_hit, is_error) in enumerate(accesses):
        # A pass of one answered read; a miss that errs was served stale.
        metrics.record_reads(
            float(now), 1, is_hit, is_error, is_error and not is_hit, 0
        )
    for now, (response, connected) in enumerate(queries):
        metrics.record_query(float(now), response, connected)
    return metrics


class TestClientMetrics:
    def test_access_accounting(self):
        metrics = make_client(
            accesses=[(True, False), (True, True), (False, False)]
        )
        assert metrics.hit.mean == pytest.approx(2 / 3)
        assert metrics.error.mean == pytest.approx(1 / 3)

    def test_pass_accounting(self):
        metrics = ClientMetrics(0)
        # Disconnected: 5 accesses, 1 hit, 2 stale serves (1 an error),
        # 2 unanswered.
        metrics.record_reads(10.0, 5, 1, 1, 2, 2, connected=False)
        metrics.record_reads(20.0, 4, 4, 0, 0, 0)
        assert (metrics.hit.count, metrics.hit.sum) == (9, 5.0)
        assert (metrics.error.count, metrics.error.sum) == (7, 1.0)
        assert (
            metrics.disconnected_error.count,
            metrics.disconnected_error.sum,
        ) == (3, 1.0)
        assert metrics.stale_served_accesses == 2
        assert metrics.unanswered_accesses == 2

    def test_empty_pass_leaves_no_bucket(self):
        metrics = ClientMetrics(0)
        metrics.record_reads(10.0, 2, 0, 0, 0, 2)
        assert metrics.hit.series() == [(0.0, 0.0, 2)]
        assert metrics.error.series() == []

    @pytest.mark.parametrize(
        "tally",
        [
            (2, 0, 1, 0, 2),  # an error among unanswered reads only
            (2, 1, 2, 0, 0),  # more errors than served values
            (2, 2, 0, 1, 0),  # more served values than accesses
            (2, 0, 0, 0, 3),  # more unanswered reads than accesses
        ],
    )
    def test_inconsistent_tally_is_refused(self, tally):
        with pytest.raises(ValueError, match="inconsistent read tally"):
            ClientMetrics(0).record_reads(0.0, *tally)

    def test_query_accounting(self):
        metrics = make_client(
            queries=[(1.0, True), (3.0, True), (0.5, False)]
        )
        assert metrics.queries == 3
        assert metrics.disconnected_queries == 1
        assert metrics.response.mean == pytest.approx(1.5)

    def test_initial_state(self):
        metrics = ClientMetrics(7)
        assert metrics.hit.mean == 0.0
        assert metrics.queries == 0
        assert metrics.bytes_sent == 0


class TestMetricsSummary:
    def test_requires_clients(self):
        with pytest.raises(ValueError):
            MetricsSummary([])

    def test_aggregates_across_clients(self):
        a = make_client(0, accesses=[(True, False)] * 3,
                        queries=[(1.0, True)])
        b = make_client(1, accesses=[(False, False)] * 1,
                        queries=[(3.0, True)])
        summary = MetricsSummary([a, b])
        assert summary.hit_ratio == pytest.approx(0.75)
        assert summary.response_time == pytest.approx(2.0)
        assert summary.total_queries == 2
        assert summary.total_accesses == 4

    def test_error_rate_aggregation(self):
        a = make_client(0, accesses=[(True, True), (True, False)])
        b = make_client(1, accesses=[(False, False)] * 2)
        summary = MetricsSummary([a, b])
        assert summary.error_rate == pytest.approx(0.25)

    def test_confidence_interval(self):
        a = make_client(
            0, queries=[(1.0, True), (2.0, True), (3.0, True)]
        )
        summary = MetricsSummary([a])
        low, high = summary.response_confidence_interval()
        assert low <= summary.response_time <= high
