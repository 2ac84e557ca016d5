"""The typed event taxonomy of the instrumentation spine.

Every observable moment in a simulation is one :class:`typing.NamedTuple`
emitted on the run's :class:`~repro.obs.bus.EventBus`, with ``time`` as its
first field.  Domain code constructs an event and emits it; a counter
that tallies an event is updated by its emitter at the same site.
Optional sinks — the JSONL trace writer, the staleness timeline, the
invariant checkers — subscribe to the types they care about.  A named
tuple is immutable, so every sink sees the event as it was emitted, and
it is cheap to build: an always-on event is built once per attribute
read.  :class:`SimEvent` is the structural type of "any
event"; no event class inherits from it.

Two emission disciplines keep the bus cheap:

* **always-on events** mark what the headline metrics count, so they
  are emitted unconditionally and ``event_counts`` never depends on
  the sinks attached: :class:`CacheAccess`, :class:`QueryComplete`,
  :class:`QueryDegraded`, :class:`RemoteRound`, :class:`RequestSent`,
  :class:`ReplyTimeout`, :class:`LateReply`, :class:`ReplyReceived`,
  :class:`TransmitOutcome`, :class:`FaultEvent`;
* **guarded events** exist purely for tracing/profiling/verification
  and are only constructed when a subscriber asked for them (the emit
  site checks ``bus.wants(EventType)`` first): :class:`CacheAdmit`,
  :class:`CacheRefresh`, :class:`CacheInvalidate`, :class:`CacheEvict`,
  :class:`CacheReject`, :class:`RefreshExpired`, :class:`RequestServed`,
  :class:`ResourceWait`.

All fields are JSON-representable scalars or cache keys (which the
trace sink stringifies), so every event round-trips through the JSONL
trace export.
"""

from __future__ import annotations

import math
import typing as t

#: A cache key as the domain uses it: ``(OID, attribute-or-None)``.
#: Typed loosely here so :mod:`repro.obs` stays a leaf package with no
#: imports from the domain layers above it.
KeyLike = t.Any

#: :attr:`TransmitOutcome.outcome` values (mirrors repro.net.channel).
OUTCOME_DELIVERED = "delivered"
OUTCOME_DROPPED = "dropped"
OUTCOME_ABORTED = "aborted"

#: :attr:`FaultEvent.kind` values (mirrors repro.net.faults).
KIND_DROP = "drop"
KIND_ABORT = "abort"
KIND_BURST_ENTER = "burst-enter"
KIND_BURST_EXIT = "burst-exit"


class SimEvent(t.Protocol):
    """Any bus event: a named tuple whose first field is ``time``, the
    simulated instant it happened."""

    @property
    def time(self) -> float: ...

    def _asdict(self) -> dict[str, t.Any]: ...


# ----------------------------------------------------------------------
# Client cache dynamics
# ----------------------------------------------------------------------
class CacheAccess(t.NamedTuple):
    """One attribute access resolved by the client (always-on).

    ``answered`` is ``False`` for reads that returned no value at all
    (uncached items while cut off from the server); they count as
    misses but stay out of the error denominator.  ``stale_served``
    marks reads served from an *expired* cached entry (disconnection or
    degraded-mode serving).  ``age_seconds`` is the served entry's age
    at read time (``None`` when no entry was consulted), which is what
    the staleness-timeline sink aggregates.
    """

    time: float
    client_id: int
    key: KeyLike
    hit: bool
    error: bool
    answered: bool
    connected: bool
    stale_served: bool = False
    age_seconds: "float | None" = None


class CacheAdmit(t.NamedTuple):
    """A new entry entered a storage cache (guarded).

    ``expires_at`` is the entry's refresh deadline (the paper's RT
    contract: the entry may be served without server contact only until
    this instant) and ``capacity_bytes`` the cache's byte budget — both
    carried on the event so trace-level checkers can verify the
    coherence and occupancy invariants without the live cache object.
    """

    time: float
    client_id: int
    cache: str
    key: KeyLike
    size_bytes: int
    evictions: int
    #: Defaults chosen so traces from older taxonomies decode to the
    #: no-false-positive interpretation: never expires, unknown budget.
    expires_at: float = math.inf
    capacity_bytes: int = 0


class CacheRefresh(t.NamedTuple):
    """A resident entry was overwritten with a freshly fetched value
    and a new refresh deadline (guarded).

    Emitted on the in-place refresh path of
    :meth:`~repro.core.storage_cache.ClientStorageCache.admit` — the
    path a re-fetched expired entry takes — so coherence checkers can
    tell a legal post-refresh hit from a hit on an expired entry.
    """

    time: float
    client_id: int
    cache: str
    key: KeyLike
    expires_at: float


class CacheInvalidate(t.NamedTuple):
    """An entry was dropped without a replacement decision (guarded).

    Covers invalidation-report hits and the amnesia rule's full purge;
    conservation checkers need it to keep admits − evicts −
    invalidations equal to the cache's occupancy.
    """

    time: float
    client_id: int
    cache: str
    key: KeyLike
    size_bytes: int


class CacheEvict(t.NamedTuple):
    """A replacement policy chose and removed a victim (guarded).

    ``score`` is the policy's eviction score for the victim when the
    policy exposes one (the duration schemes and EWMA do); ``None``
    for recency/frequency policies without a numeric rank.
    """

    time: float
    client_id: int
    cache: str
    key: KeyLike
    size_bytes: int
    score: "float | None" = None


class CacheReject(t.NamedTuple):
    """An admission-aware policy denied a new entry (guarded).

    Emitted when :meth:`ReplacementPolicy.should_admit` returns
    ``False`` for an insert that would have forced an eviction: the
    candidate never becomes resident, no victim is chosen, and the
    occupancy ledger must not move.  ``size_bytes`` is the size the
    rejected entry would have occupied.
    """

    time: float
    client_id: int
    cache: str
    key: KeyLike
    size_bytes: int


class RefreshExpired(t.NamedTuple):
    """A lookup found a cached entry past its refresh deadline (guarded)."""

    time: float
    client_id: int
    key: KeyLike
    age_seconds: float
    expired_for_seconds: float


# ----------------------------------------------------------------------
# Client query / remote-round lifecycle
# ----------------------------------------------------------------------
class RemoteRound(t.NamedTuple):
    """One attempt of a remote round began (always-on).

    ``attempt`` is zero-based: attempt 0 opens the round, every later
    attempt is a retry after a reply timeout.
    """

    time: float
    client_id: int
    query_id: int
    attempt: int


class RequestSent(t.NamedTuple):
    """A request message entered the uplink (always-on)."""

    time: float
    client_id: int
    query_id: int
    attempt: int
    size_bytes: int


class ReplyTimeout(t.NamedTuple):
    """A reply wait expired (always-on)."""

    time: float
    client_id: int
    query_id: int
    attempt: int


class LateReply(t.NamedTuple):
    """A reply for an abandoned earlier attempt arrived and was
    discarded (always-on)."""

    time: float
    client_id: int
    query_id: int
    size_bytes: int


class ReplyReceived(t.NamedTuple):
    """A reply (or prefetch trailer) was consumed by the client
    (always-on)."""

    time: float
    client_id: int
    query_id: int
    size_bytes: int
    is_trailer: bool = False


class QueryComplete(t.NamedTuple):
    """A query's results were delivered to the user (always-on)."""

    time: float
    client_id: int
    query_id: int
    response_seconds: float
    connected: bool


class QueryDegraded(t.NamedTuple):
    """A query fell back to cache-only answers after the retry budget
    ran out (always-on when it happens)."""

    time: float
    client_id: int
    query_id: int
    lost_updates: int


# ----------------------------------------------------------------------
# Network and server
# ----------------------------------------------------------------------
class TransmitOutcome(t.NamedTuple):
    """One transmission left a wireless channel (always-on).

    ``bytes_on_air`` equals ``size_bytes`` for completed transmissions
    (delivered or dropped) and the partial airtime-weighted byte count
    for aborts cut mid-flight.
    """

    time: float
    channel: str
    outcome: str
    size_bytes: float
    bytes_on_air: float
    airtime_seconds: float


class FaultEvent(t.NamedTuple):
    """One injected channel fault (always-on while faults are active).

    Field order matches the PR-2 fault-trace records this type
    replaces, so persisted traces keep their shape.
    """

    time: float
    channel: str
    kind: str
    size_bytes: float


class RequestServed(t.NamedTuple):
    """The server finished processing one request (guarded)."""

    time: float
    client_id: int
    query_id: int
    items: int
    prefetched: int
    updates: int
    service_seconds: float


# ----------------------------------------------------------------------
# Simulation kernel
# ----------------------------------------------------------------------
class ResourceWait(t.NamedTuple):
    """A facility claim was released: queueing and holding times
    (guarded)."""

    time: float
    resource: str
    wait_seconds: float
    hold_seconds: float


#: Every event type, for sinks that subscribe to the full taxonomy.
ALL_EVENT_TYPES: tuple[type[SimEvent], ...] = (
    CacheAccess,
    CacheAdmit,
    CacheRefresh,
    CacheInvalidate,
    CacheEvict,
    CacheReject,
    RefreshExpired,
    RemoteRound,
    RequestSent,
    ReplyTimeout,
    LateReply,
    ReplyReceived,
    QueryComplete,
    QueryDegraded,
    TransmitOutcome,
    FaultEvent,
    RequestServed,
    ResourceWait,
)
