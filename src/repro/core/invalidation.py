"""Invalidation-report coherence — the broadcast baseline from [2].

The paper's related work (Barbará and Imieliński's *Sleepers and
Workaholics*) keeps caches coherent by periodically broadcasting an
*invalidation report* (IR): the identities of every item updated during
the last window.  Connected clients drop the listed entries; a client
that was disconnected long enough to miss a report can no longer verify
anything and must purge its whole cache — the "amnesic terminal"
problem, and precisely the weakness the paper's lazy refresh-time
scheme avoids.  This module implements the baseline so the two
strategies can be compared quantitatively (see
``benchmarks/test_coherence_baselines.py``).
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.core.granularity import CacheKey
from repro.net.message import ATTR_ID_BYTES, HEADER_BYTES, OID_BYTES

#: Coherence strategy labels used by SimulationConfig.
REFRESH_TIME = "refresh-time"
INVALIDATION_REPORT = "invalidation-report"
COHERENCE_MODES = (REFRESH_TIME, INVALIDATION_REPORT)

#: Default broadcast period (seconds).
DEFAULT_IR_INTERVAL = 1000.0


@dataclasses.dataclass(frozen=True)
class InvalidationReport:
    """One periodic broadcast: items updated since the previous report."""

    sequence: int
    broadcast_at: float
    keys: tuple[CacheKey, ...]

    @property
    def size_bytes(self) -> int:
        size = HEADER_BYTES
        for __, attribute in self.keys:
            size += OID_BYTES
            if attribute is not None:
                size += ATTR_ID_BYTES
        return size


class WriteLog:
    """Server-side log of recent writes, windowed for IR construction.

    Entries older than the retention window are pruned on collection,
    so memory stays bounded over arbitrarily long simulations as long as
    a broadcaster collects.  The server therefore records writes only
    under invalidation-report coherence, the one mode that runs a
    broadcaster; under refresh-time coherence the log stays empty.
    """

    def __init__(self) -> None:
        self._writes: list[tuple[float, CacheKey]] = []

    def __len__(self) -> int:
        return len(self._writes)

    def record(self, key: CacheKey, now: float) -> None:
        self._writes.append((now, key))

    def collect_since(self, since: float) -> tuple[CacheKey, ...]:
        """Distinct keys written after ``since``; prunes older entries."""
        kept = [(at, key) for at, key in self._writes if at > since]
        self._writes = kept
        seen: dict[CacheKey, None] = {}
        for __, key in kept:
            seen.setdefault(key, None)
        return tuple(seen)


class InvalidationListener:
    """Client-side IR state: receipt tracking and the amnesia rule."""

    def __init__(self, interval: float = DEFAULT_IR_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError(
                f"IR interval must be positive, got {interval!r}"
            )
        self.interval = float(interval)
        self.last_report_time = 0.0
        self.reports_received = 0
        self.cache_purges = 0

    def on_report(self, report: InvalidationReport) -> None:
        self.last_report_time = report.broadcast_at
        self.reports_received += 1

    def must_purge(self, now: float) -> bool:
        """Whether a report has certainly been missed.

        A connected client receives a report every ``interval`` seconds;
        going 1.5 intervals without one means at least one was missed
        (the 0.5 slack absorbs broadcast transmission time), so the
        cache can no longer be trusted.
        """
        return now - self.last_report_time > 1.5 * self.interval

    def note_purged(self, now: float) -> None:
        """Reset after a purge: the (now empty) cache is consistent."""
        self.cache_purges += 1
        self.last_report_time = now


def broadcaster(
    env: t.Any,
    log: WriteLog,
    channel: t.Any,
    deliver: t.Callable[[InvalidationReport], None],
    interval: float = DEFAULT_IR_INTERVAL,
) -> t.Generator[t.Any, t.Any, None]:
    """Server process: broadcast an IR every ``interval`` seconds.

    The report occupies the broadcast channel for its transmission time
    and is then delivered to every registered client at once (delivery
    filtering by connectivity happens at the client side).
    """
    sequence = 0
    window_start = env.now
    while True:
        yield env.timeout(interval)
        keys = log.collect_since(window_start)
        window_start = env.now
        sequence += 1
        report = InvalidationReport(
            sequence=sequence, broadcast_at=env.now, keys=keys
        )
        outcome = yield from channel.transmit(report.size_bytes)
        # String literal instead of repro.net.channel.DROPPED: importing
        # repro.net here would cycle back into repro.core during init.
        if outcome == "dropped":
            continue
        deliver(report)
