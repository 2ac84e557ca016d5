"""Cache entries held in a client's storage cache."""

from __future__ import annotations

import dataclasses
import math
import typing as t

from repro._units import Seconds
from repro.core.granularity import CacheKey

#: Refresh deadline for items with no usable write history: they stay
#: valid forever until the server ships a finite refresh time.
NEVER_EXPIRES: Seconds = math.inf


@dataclasses.dataclass(slots=True)
class CacheEntry:
    """A cached value plus coherence bookkeeping.

    ``version`` is the server-side version the value was fetched at; the
    error oracle compares it against the server's current version.
    ``expires_at`` implements the paper's refresh-time scheme: an entry is
    *valid* while the clock has not passed it, *stale* (but still usable
    during disconnection) afterwards.
    """

    key: CacheKey
    value: t.Any
    version: int
    size_bytes: int
    fetched_at: Seconds
    expires_at: Seconds = NEVER_EXPIRES

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(
                f"entry {self.key!r} must have positive size"
            )

    def is_valid(self, now: Seconds) -> bool:
        """Whether the refresh time has not yet expired."""
        return now <= self.expires_at

    def refresh(
        self,
        value: t.Any,
        version: int,
        now: Seconds,
        expires_at: Seconds,
    ) -> None:
        """Overwrite with a freshly fetched value and refresh deadline."""
        self.value = value
        self.version = version
        self.fetched_at = now
        self.expires_at = expires_at
