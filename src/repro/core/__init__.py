"""The paper's primary contribution: mobile cache management.

Granularities (NC/AC/OC/HC), the lazy pull-based coherence scheme with
refresh-time estimation, the replacement-policy family and the
byte-budgeted client storage cache.
"""

from repro.core.coherence import (
    ErrorOracle,
    RefreshTimeEstimator,
    WriteIntervalStats,
)
from repro.core.entry import NEVER_EXPIRES, CacheEntry
from repro.core.granularity import CacheKey, CachingGranularity
from repro.core.invalidation import (
    COHERENCE_MODES,
    INVALIDATION_REPORT,
    InvalidationListener,
    InvalidationReport,
    REFRESH_TIME,
    WriteLog,
)
from repro.core.prefetch import AttributeAccessTracker
from repro.core.replacement import (
    ReplacementPolicy,
    available_policies,
    create_policy,
)
from repro.core.storage_cache import ClientStorageCache

__all__ = [
    "AttributeAccessTracker",
    "COHERENCE_MODES",
    "CacheEntry",
    "CacheKey",
    "CachingGranularity",
    "ClientStorageCache",
    "ErrorOracle",
    "INVALIDATION_REPORT",
    "InvalidationListener",
    "InvalidationReport",
    "NEVER_EXPIRES",
    "REFRESH_TIME",
    "RefreshTimeEstimator",
    "ReplacementPolicy",
    "WriteIntervalStats",
    "WriteLog",
    "available_policies",
    "create_policy",
]
