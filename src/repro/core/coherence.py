"""Lazy pull-based cache coherence (Section 3.2 of the paper).

The server maintains, per item, the inter-arrival durations of consecutive
write operations.  The *refresh time* shipped with every reply is::

    RT = mean(durations) + beta * std(durations)

``beta`` trades freshness for hit ratio: larger beta, longer validity,
more stale reads.  A client treats a cached item as valid until its
refresh deadline passes and only then re-requests it **on its next
access** — no server callbacks, no invalidation broadcasts, so the scheme
survives arbitrary disconnection.

An *access error* (the paper's error metric) is a read of a cached value
whose server-side version advanced after the value was fetched; the
:class:`ErrorOracle` checks that with perfect knowledge of server state.
"""

from __future__ import annotations

import typing as t

from repro._units import Seconds
from repro.core.entry import NEVER_EXPIRES
from repro.metrics.stats import Tally


class WriteIntervalStats:
    """Welford-online mean/std of one item's write inter-arrival times."""

    __slots__ = ("_last_write", "_tally")

    def __init__(self) -> None:
        self._last_write: float | None = None
        self._tally = Tally("write-intervals")

    @property
    def interval_count(self) -> int:
        return self._tally.count

    def record_write(self, now: Seconds) -> None:
        """Register a write; the gap since the previous write is sampled."""
        if self._last_write is not None:
            self._tally.record(max(0.0, now - self._last_write))
        self._last_write = now

    def refresh_time(self, beta: float) -> Seconds:
        """``mean + beta * std`` of the write gaps, clamped at zero.

        With fewer than one complete gap there is no basis for an
        estimate; the item is treated as never expiring (the paper's
        scheme simply has nothing to invalidate it with until writes
        arrive).
        """
        if self._tally.count == 0:
            return NEVER_EXPIRES
        return max(0.0, self._tally.mean + beta * self._tally.std)


class RefreshTimeEstimator:
    """Per-item write statistics and refresh-time estimation.

    An item's estimate only moves when a write to it lands, but the
    server ships it with every reply item, hundreds of times between
    writes at fleet scale.  So each write stores the item's new
    estimate in :attr:`times`, and a read is one dict probe: the server
    reads the table directly while it builds a reply.  An item never
    written has no row and never expires.
    """

    def __init__(self, beta: float = 0.0) -> None:
        self._beta = beta
        self._stats: dict[t.Hashable, WriteIntervalStats] = {}
        #: Item key to its current refresh time, rewritten by every
        #: write to the item.  Read-only to everything but this class.
        self.times: dict[t.Hashable, float] = {}

    def __repr__(self) -> str:
        return f"<RefreshTimeEstimator beta={self._beta} items={len(self._stats)}>"

    @property
    def beta(self) -> float:
        """The weight of the gaps' std, fixed at construction: every
        stored estimate was computed with it."""
        return self._beta

    def record_write(self, item: t.Hashable, now: Seconds) -> None:
        stats = self._stats.get(item)
        if stats is None:
            stats = self._stats[item] = WriteIntervalStats()
        stats.record_write(now)
        self.times[item] = stats.refresh_time(self._beta)

    def refresh_time(self, item: t.Hashable) -> Seconds:
        """Validity duration for ``item`` under the configured beta."""
        return self.times.get(item, NEVER_EXPIRES)


class ErrorOracle:
    """Perfect-knowledge detector of stale reads (Section 3.2 / Section 5).

    The simulation can see server state directly, so an error is simply a
    read of a cached value whose version differs from the item's current
    server version.  OC compares object versions (an update to *any*
    attribute of a cached object makes subsequent reads of that object
    erroneous — the paper uses exactly this to explain OC's higher error
    rates); AC/HC compare attribute versions.
    """

    @staticmethod
    def is_stale(cached_version: int, current_version: int) -> bool:
        if cached_version > current_version:
            raise ValueError(
                "cached version cannot exceed the server's current version"
            )
        return cached_version < current_version
