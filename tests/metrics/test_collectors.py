"""Unit tests for metric collectors and summaries."""

import pytest

from repro.metrics.collectors import ClientMetrics, MetricsSummary


def make_client(client_id=0, accesses=(), queries=()):
    metrics = ClientMetrics(client_id)
    for now, (is_hit, is_error) in enumerate(accesses):
        metrics.record_access(float(now), is_hit, is_error)
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
