"""Metrics: the paper's hit-ratio / response-time / error-rate triple."""

from repro.metrics.collectors import ClientMetrics, MetricsSummary
from repro.metrics.stats import BucketedSeries, Tally

__all__ = [
    "BucketedSeries",
    "ClientMetrics",
    "MetricsSummary",
    "Tally",
]
