"""Coherence checkers: the paper's refresh-time contract, per cache key.

The lazy pull-based scheme rests on one promise (Section 3.2): a cached
item may be served *without contacting the server* only while the
server-estimated refresh time ``RT = mean + beta * std`` has not
expired.  Expired entries must go remote (or be served as explicitly
stale during disconnection/degradation), and stale consumption is what
the error rate counts.  These checkers prove the event stream keeps
that promise:

* **COH001** — no ``CacheAccess(hit=True)`` on an entry past its
  refresh deadline without an intervening refresh round
  (:class:`CacheRefresh`/:class:`CacheAdmit`).
* **COH002** — a hit is by definition a fresh read: ``hit=True`` and
  ``stale_served=True`` on the same access is a contract break.
* **COH003** — once :class:`RefreshExpired` is observed for a key, the
  next local hit on that key requires a refresh first (the
  deadline-free form of COH001, effective even when the admit deadline
  is unknown).
* **COH004** (reconcile) — stale-read error and hit counts derived
  from events must equal the metrics layer's counters exactly.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.analysis.invariants.engine import InvariantChecker, RunContext
from repro.obs.events import (
    CacheAccess,
    CacheAdmit,
    CacheEvict,
    CacheInvalidate,
    CacheRefresh,
    RefreshExpired,
    SimEvent,
)


@dataclasses.dataclass
class _KeyState:
    """Per-(client, key) coherence state."""

    expires_at: float
    expiry_observed: bool = False


@dataclasses.dataclass
class _ClientCounts:
    """Per-client access tallies, reconciled against ClientMetrics."""

    accesses: int = 0
    hits: int = 0
    answered: int = 0
    errors: int = 0
    stale_served: int = 0
    unanswered: int = 0


class CoherenceChecker(InvariantChecker):
    """COH001-COH004: refresh-time contract + metrics reconciliation."""

    checker_id = "COH"
    title = "refresh-time coherence contract per cached key"
    event_types = (
        CacheAccess,
        CacheAdmit,
        CacheRefresh,
        CacheEvict,
        CacheInvalidate,
        RefreshExpired,
    )

    def __init__(self) -> None:
        super().__init__()
        #: (client_id, key) -> deadline state for resident entries.
        self._keys: dict[tuple[int, t.Any], _KeyState] = {}
        self._clients: dict[int, _ClientCounts] = {}

    def _counts(self, client_id: int) -> _ClientCounts:
        counts = self._clients.get(client_id)
        if counts is None:
            counts = _ClientCounts()
            self._clients[client_id] = counts
        return counts

    # ------------------------------------------------------------------
    def on_event(self, event: SimEvent) -> None:
        if isinstance(event, CacheAccess):
            self._on_access(event)
        elif isinstance(event, (CacheAdmit, CacheRefresh)):
            self._keys[(event.client_id, event.key)] = _KeyState(
                expires_at=event.expires_at
            )
        elif isinstance(event, (CacheEvict, CacheInvalidate)):
            self._keys.pop((event.client_id, event.key), None)
        elif isinstance(event, RefreshExpired):
            self._on_expired(event)

    def _on_access(self, event: CacheAccess) -> None:
        counts = self._counts(event.client_id)
        counts.accesses += 1
        if event.hit:
            counts.hits += 1
        if event.answered:
            counts.answered += 1
            if event.error:
                counts.errors += 1
        else:
            counts.unanswered += 1
        if event.stale_served:
            counts.stale_served += 1
        if event.hit and event.stale_served:
            self.violation(
                "COH002",
                event.time,
                f"client-{event.client_id}/{event.key}",
                "access flagged both hit and stale_served; a hit is by "
                "definition a fresh (unexpired) read",
            )
        if not event.hit:
            return
        state = self._keys.get((event.client_id, event.key))
        if state is None:
            # Hit on a key with no observed admit: an incomplete stream
            # (trace started mid-run), not a protocol violation.
            return
        if event.time > state.expires_at:
            self.violation(
                "COH001",
                event.time,
                f"client-{event.client_id}/{event.key}",
                f"cache hit {event.time - state.expires_at:g}s after "
                f"the refresh deadline ({state.expires_at:g}) with no "
                "intervening refresh round",
            )
        elif state.expiry_observed:
            self.violation(
                "COH003",
                event.time,
                f"client-{event.client_id}/{event.key}",
                "cache hit after RefreshExpired was observed for this "
                "key and before any refresh round",
            )

    def _on_expired(self, event: RefreshExpired) -> None:
        state = self._keys.get((event.client_id, event.key))
        if state is not None:
            state.expiry_observed = True
        if event.expired_for_seconds < 0:
            self.violation(
                "COH003",
                event.time,
                f"client-{event.client_id}/{event.key}",
                f"RefreshExpired reports a negative expiry age "
                f"({event.expired_for_seconds:g}s): the entry was "
                "still valid",
            )

    # ------------------------------------------------------------------
    def reconcile(self, context: RunContext) -> None:
        for client_id, metrics in sorted(context.metrics.items()):
            counts = self._clients.get(client_id, _ClientCounts())
            pairs = (
                ("hit accesses", counts.hits, metrics.hit.sum),
                ("total accesses", counts.accesses, metrics.hit.count),
                ("errors", counts.errors, metrics.error.sum),
                ("answered reads", counts.answered, metrics.error.count),
                (
                    "stale serves",
                    counts.stale_served,
                    metrics.stale_served_accesses,
                ),
                (
                    "unanswered reads",
                    counts.unanswered,
                    metrics.unanswered_accesses,
                ),
            )
            for label, from_events, from_metrics in pairs:
                if from_events != from_metrics:
                    self.violation(
                        "COH004",
                        0.0,
                        f"client-{client_id}",
                        f"{label} derived from events ({from_events}) "
                        f"!= metrics layer ({from_metrics})",
                    )
