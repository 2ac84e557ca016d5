"""The mobile client process.

Each client runs an open-arrival query loop: queries are *issued* on the
arrival process's schedule and executed sequentially, so a burst of
arrivals backs up at the client and the response time (measured from the
issue moment, as in the paper) includes that queueing delay.

Executing a query:

1. **Probe** — every attribute access is checked against the storage
   cache at the query's granularity.  Valid entries are read locally
   (hit; checked against the error oracle), expired or absent items go
   on the *needed* list, valid non-updated items go on the *existent*
   list so the server will not retransmit them.
2. **Remote round** — if connected and anything is needed or updated,
   a request crosses the shared uplink, the server processes it, and the
   reply queues on the shared downlink.
3. **Absorb** — returned items (including HC prefetches) are admitted to
   the storage cache, evicting victims chosen by the replacement policy.

During disconnection the probe serves even *expired* entries (counted as
misses and checked for errors — the paper's Experiment #6) and items not
cached at all go unanswered.

Under fault injection (Experiment #7) the remote round grows recovery
machinery: a request timeout, bounded retries with exponential backoff
plus seeded jitter, and — when the budget is exhausted — graceful
degradation to cache-only answers via the same local-serve path
Experiment #6 uses.  With recovery off the round is the original
single-shot path, bit for bit.
"""

from __future__ import annotations

import typing as t

from repro.core.coherence import ErrorOracle
from repro.core.entry import CacheEntry
from repro.core.granularity import CacheKey, CachingGranularity
from repro.core.invalidation import (
    DEFAULT_IR_INTERVAL,
    INVALIDATION_REPORT,
    InvalidationListener,
    InvalidationReport,
    REFRESH_TIME,
)
from repro.core.replacement import create_policy
from repro.core.replacement.lru import LRUPolicy
from repro.core.storage_cache import ClientStorageCache
from repro.errors import NetworkError
from repro.metrics.collectors import MetricsSink
from repro.net.channel import DELIVERED
from repro.net.faults import RecoveryPolicy
from repro.net.message import ReplyMessage, RequestMessage, UpdateValue
from repro.net.network import Network
from repro.obs.bus import EventBus
from repro.obs.events import (
    CacheAccess,
    LateReply,
    QueryComplete,
    QueryDegraded,
    RefreshExpired,
    RemoteRound,
    ReplyReceived,
    ReplyTimeout,
    RequestSent,
)
from repro.oodb.database import Database
from repro.oodb.objects import OID
from repro.oodb.query import Query
from repro.oodb.server import DatabaseServer
from repro.oodb.storage import StorageModel
from repro.sim.environment import Environment
from repro.sim.rand import RandomStream
from repro.sim.resources import Store
from repro.workload.arrivals import ArrivalProcess
from repro.workload.queries import QueryWorkload

#: The paper's client storage cache: 20% of the 2000-object database.
DEFAULT_CLIENT_CACHE_OBJECTS = 400
#: The paper's client memory buffer.
DEFAULT_CLIENT_BUFFER_OBJECTS = 30


class MobileClient:
    """One mobile client: cache, memory buffer, query loop."""

    def __init__(
        self,
        client_id: int,
        env: Environment,
        network: Network,
        server: DatabaseServer,
        database: Database,
        workload: QueryWorkload,
        arrivals: ArrivalProcess,
        granularity: CachingGranularity,
        replacement_spec: str = "ewma-0.5",
        cache_objects: int = DEFAULT_CLIENT_CACHE_OBJECTS,
        buffer_objects: int = DEFAULT_CLIENT_BUFFER_OBJECTS,
        object_size_bytes: int = 1024,
        attribute_entry_overhead: int = 40,
        objects_per_page: int = 4,
        coherence_mode: str = REFRESH_TIME,
        ir_interval: float = DEFAULT_IR_INTERVAL,
        recovery: RecoveryPolicy | None = None,
        recovery_rng: RandomStream | None = None,
        bus: EventBus | None = None,
    ) -> None:
        self.client_id = client_id
        self.env = env
        self.network = network
        self.server = server
        self.database = database
        self.workload = workload
        self.arrivals = arrivals
        self.granularity = granularity
        #: Whether a cache key names a whole object (``(oid, None)``),
        #: read once per access by the probe.
        self._caches_objects = granularity.caches_objects
        #: Every observable moment is emitted here; a private bus (with
        #: just the metrics sink) keeps standalone construction working.
        self.bus = bus if bus is not None else EventBus()
        #: Stable per-client metrics handle, owned by the bus's shared
        #: metrics sink and updated only through events.
        self.metrics = MetricsSink.install(self.bus).client(client_id)
        self.reply_box: Store = Store(env, name=f"client-{client_id}-replies")

        if granularity.uses_storage_cache:
            capacity_bytes = cache_objects * object_size_bytes
            policy = create_policy(replacement_spec)
        else:
            # NC: only the memory buffer caches, and the OS manages it
            # with LRU regardless of the configured policy.
            capacity_bytes = buffer_objects * object_size_bytes
            policy = LRUPolicy()
        self.cache = ClientStorageCache(
            capacity_bytes,
            policy,
            name=f"client-{client_id}-cache",
            bus=self.bus,
            client_id=client_id,
        )
        #: Cache-table cost of storing one attribute-grained entry beyond
        #: its payload: the surrogate placeholder slot, the version and
        #: the refresh deadline (Section 3.1.1's Remote/Cache hierarchy).
        self.attribute_entry_overhead = int(attribute_entry_overhead)
        #: Page size used by the PC baseline's held-list computation.
        self.objects_per_page = int(objects_per_page)
        #: Coherence strategy; under invalidation reports the client
        #: listens for broadcasts and obeys the amnesia rule.
        self.coherence_mode = coherence_mode
        self.invalidation = (
            InvalidationListener(ir_interval)
            if coherence_mode == INVALIDATION_REPORT
            else None
        )
        #: Recovery machinery for lossy links: request timeouts, bounded
        #: retries with backoff + jitter, degradation to cache-only
        #: answers.  ``None`` preserves the original single-shot remote
        #: round bit-for-bit.
        self.recovery = recovery
        if recovery is not None and recovery_rng is None:
            raise NetworkError(
                "a recovery policy needs a RandomStream for backoff jitter"
            )
        self._backoff_rng = recovery_rng
        #: Probe whose remote round is in flight; its deferred miss
        #: accesses are flushed by :meth:`finalize_metrics` if the
        #: horizon cuts the round (the eager path records at probe time,
        #: so the no-op identity needs the cut round counted too).
        self._pending_probe: "_ProbeResult | None" = None
        #: Timing model: memory buffer in front of the local disk.
        self.local_storage = StorageModel(
            buffer_objects, name=f"client-{client_id}"
        )
        self._query_counter = 0
        server.register_client(
            client_id, self._deliver, on_report=self._on_report
        )

    def _on_report(self, report: InvalidationReport) -> None:
        """Handle a broadcast invalidation report (IR coherence only).

        Reports only reach the client while it is connected; a
        disconnected client misses them, which the amnesia rule in
        :meth:`execute` later detects.
        """
        if self.invalidation is None:
            return
        if not self.network.is_connected(self.client_id):
            return
        self.invalidation.on_report(report)
        for key in report.keys:
            self.cache.invalidate(key, now=self.env.now)

    def _deliver(self, reply: ReplyMessage) -> None:
        """Route an incoming downlink message.

        Primary replies wake the query waiting in :meth:`execute`;
        prefetch trailers are absorbed immediately in the background
        (their disk installation is a background flush and does not
        block the query loop).
        """
        if reply.is_trailer:
            self.bus.emit(
                ReplyReceived(
                    time=self.env.now,
                    client_id=self.client_id,
                    query_id=reply.query_id,
                    size_bytes=reply.size_bytes,
                    is_trailer=True,
                )
            )
            self._absorb(reply)
        else:
            self.reply_box.put(reply)

    def __repr__(self) -> str:
        return (
            f"<MobileClient #{self.client_id} {self.granularity.value} "
            f"queries={self.metrics.queries}>"
        )

    def start(self) -> None:
        """Launch the client's query loop process."""
        self.env.process(self._run(), name=f"client-{self.client_id}")

    def finalize_metrics(self) -> None:
        """Flush accesses deferred by a round the horizon cut mid-flight.

        Without recovery every miss is recorded eagerly at probe time,
        so a query still waiting for its reply when the simulation ends
        has already been counted.  The deferred recording must match:
        the cut round's misses are recorded exactly as the eager path
        would have, stamped with the probe instant.
        """
        probe = self._pending_probe
        self._pending_probe = None
        if probe is None:
            return
        self._record_fresh_misses(probe)

    # ------------------------------------------------------------------
    # Query loop
    # ------------------------------------------------------------------
    def _run(self) -> t.Generator[t.Any, t.Any, None]:
        next_arrival = self.env.now + self.arrivals.next_interarrival(
            self.env.now
        )
        while True:
            if self.env.now < next_arrival:
                yield self.env.timeout(next_arrival - self.env.now)
            issued_at = next_arrival
            next_arrival += self.arrivals.next_interarrival(next_arrival)
            query = self.workload.next_query(self._next_query_id())
            yield from self.execute(query, issued_at)

    def _next_query_id(self) -> int:
        self._query_counter += 1
        return self._query_counter

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def execute(
        self, query: Query, issued_at: float | None = None
    ) -> t.Generator[t.Any, t.Any, None]:
        """Run one query to completion (``yield from`` inside a process)."""
        if issued_at is None:
            issued_at = self.env.now
        # The connectivity decision is pinned at query issue on
        # purpose: the paper's client commits to a local or remote plan
        # up front, and _remote_round re-probes before every
        # transmission attempt anyway.
        connected = self.network.is_connected(  # repro: noqa REP017 -- see comment
            self.client_id
        )
        if (
            self.invalidation is not None
            and connected
            and self.invalidation.must_purge(self.env.now)
            and len(self.cache)
        ):
            # Amnesia rule: at least one invalidation report was missed
            # while disconnected, so nothing in the cache can be
            # trusted any more.
            self.cache.clear(now=self.env.now)
            self.invalidation.note_purged(self.env.now)
        probe = self._probe(query, connected)
        if probe.local_read_time > 0:
            yield self.env.timeout(probe.local_read_time)

        reply: ReplyMessage | None = None
        if connected and (probe.needed or probe.updates):
            request = RequestMessage(
                client_id=self.client_id,
                query_id=query.query_id,
                granularity=self.granularity,
                # Probe dicts are built in query item order (deterministic
                # by construction), and that order fixes the server's reply
                # item order on the wire — sorting here would change it.
                needed={
                    oid: tuple(attrs)
                    for oid, attrs in (
                        probe.needed.items()  # repro: noqa REP003 -- wire order
                    )
                },
                existent=tuple(probe.existent),
                held=tuple(probe.held),
                updates={
                    oid: tuple(changes)
                    for oid, changes in (
                        probe.updates.items()  # repro: noqa REP003 -- wire order
                    )
                },
            )
            self._pending_probe = probe
            reply = yield from self._remote_round(request)
            self._pending_probe = None
            if reply is not None:
                # The server answered: deferred miss accesses resolve to
                # fresh values, exactly as the eager recording assumed.
                self._record_fresh_misses(probe)
            else:
                yield from self._serve_degraded(probe, query.query_id)

        self.bus.emit(
            QueryComplete(
                time=self.env.now,
                client_id=self.client_id,
                query_id=query.query_id,
                response_seconds=self.env.now - issued_at,
                connected=connected,
            )
        )

        if reply is not None:
            write_time = self._absorb(reply)
            if write_time > 0:
                # Cache installation happens after the results are
                # already delivered, so it delays the next query but not
                # this one's response time.
                yield self.env.timeout(write_time)

    # ------------------------------------------------------------------
    # Remote round with recovery
    # ------------------------------------------------------------------
    def _remote_round(
        self, request: RequestMessage
    ) -> t.Generator[t.Any, t.Any, "ReplyMessage | None"]:
        """One remote round; ``None`` when the retry budget is exhausted.

        Without a recovery policy this is the original single-shot path:
        transmit, enqueue at the server, block on the reply.  With one,
        each attempt transmits (possibly dropped or aborted by the fault
        layer), waits up to the timeout for the matching reply, and
        retries after an exponential backoff with seeded jitter, up to
        the retry budget.  Exhaustion degrades the query to cache-only
        answers at the caller.
        """
        attempts = 1 if self.recovery is None else self.recovery.max_attempts
        for attempt in range(attempts):
            # Attempt 0 opens the round; every later attempt is a retry,
            # counted before backoff so a round the horizon (or a
            # scheduled disconnection) cuts mid-backoff still shows it.
            self.bus.emit(
                RemoteRound(
                    time=self.env.now,
                    client_id=self.client_id,
                    query_id=request.query_id,
                    attempt=attempt,
                )
            )
            if attempt:
                delay = self.recovery.backoff_delay(
                    attempt - 1, self._backoff_rng
                )
                if delay > 0:
                    yield self.env.timeout(delay)
                if not self.network.is_connected(self.client_id):
                    # The link's scheduled disconnection opened while
                    # backing off: no further attempt can succeed.  The
                    # caller observes the None reply and emits
                    # QueryDegraded, so this exit is not silent.
                    break  # repro: noqa REP021 -- caller emits QueryDegraded
            self.bus.emit(
                RequestSent(
                    time=self.env.now,
                    client_id=self.client_id,
                    query_id=request.query_id,
                    attempt=attempt,
                    size_bytes=request.size_bytes,
                )
            )
            outcome = yield from self.network.uplink.transmit(
                request.size_bytes,
                deadline=self.network.abort_deadline(self.client_id),
            )
            if outcome == DELIVERED:
                self.server.inbox.put(request)
            # Even for a dropped/aborted request the client cannot tell —
            # it simply waits out the timeout before retrying.
            reply = yield from self._await_reply(request)
            if reply is not None:
                self.bus.emit(
                    ReplyReceived(
                        time=self.env.now,
                        client_id=self.client_id,
                        query_id=reply.query_id,
                        size_bytes=reply.size_bytes,
                    )
                )
                return reply
            self.bus.emit(
                ReplyTimeout(
                    time=self.env.now,
                    client_id=self.client_id,
                    query_id=request.query_id,
                    attempt=attempt,
                )
            )
        return None

    def _await_reply(
        self, request: RequestMessage
    ) -> t.Generator[t.Any, t.Any, "ReplyMessage | None"]:
        """Wait for the reply matching ``request``; ``None`` on timeout.

        Replies of earlier, abandoned attempts may still arrive (the
        server serves every request copy it receives); they are
        discarded by query id without ending the wait.  On timeout the
        pending get is cancelled — the :class:`Store` re-queues an item
        that fired in the same instant but was never delivered, so a
        reply racing the timeout is picked up by the retry.
        """
        if self.recovery is None:
            while True:
                reply = yield self.reply_box.get()
                if reply.query_id == request.query_id:
                    return reply
                self._note_late_reply(reply)
        deadline = self.env.now + self.recovery.timeout_seconds
        while True:
            remaining = deadline - self.env.now
            if remaining <= 0:
                return None
            get_event = self.reply_box.get()
            fired = yield self.env.any_of(
                [get_event, self.env.timeout(remaining)]
            )
            if get_event not in fired:
                self.reply_box.cancel(get_event)
                return None
            reply = fired[get_event]
            if reply.query_id == request.query_id:
                return reply
            self._note_late_reply(reply)

    def _note_late_reply(self, reply: ReplyMessage) -> None:
        """A reply for an abandoned attempt arrived: counted, discarded
        unread (its bytes never enter ``bytes_received``/goodput)."""
        self.bus.emit(
            LateReply(
                time=self.env.now,
                client_id=self.client_id,
                query_id=reply.query_id,
                size_bytes=reply.size_bytes,
            )
        )

    def _serve_degraded(
        self, probe: "_ProbeResult", query_id: int
    ) -> t.Generator[t.Any, t.Any, None]:
        """Answer a failed remote round from the cache alone.

        Experiment #6's local-serve path, reused for retry exhaustion:
        every deferred miss access is served from its (expired) cached
        entry when one exists — counted as a stale serve and checked
        against the error oracle — or goes unanswered.  Updates that
        never reached the server are lost.
        """
        read_time = 0.0
        for key, attr_size in probe.deferred:
            entry = self.cache.lookup(key)
            if entry is not None:
                read_time += self._serve_local(
                    key,
                    entry,
                    attr_size,
                    time=probe.recorded_at,
                    hit=False,
                    connected=True,
                    age_seconds=max(0.0, self.env.now - entry.fetched_at),
                )
            else:
                self._record_miss(
                    key, probe.recorded_at, answered=False, connected=True
                )
        self.bus.emit(
            QueryDegraded(
                time=self.env.now,
                client_id=self.client_id,
                query_id=query_id,
                lost_updates=sum(
                    len(changes) for changes in probe.updates.values()
                ),
            )
        )
        if read_time > 0:
            yield self.env.timeout(read_time)

    # ------------------------------------------------------------------
    # Access recording
    # ------------------------------------------------------------------
    def _serve_local(
        self,
        key: CacheKey,
        entry: CacheEntry,
        attr_size: float,
        time: float,
        hit: bool,
        connected: bool,
        age_seconds: float,
    ) -> float:
        """Serve ``key`` from its cached ``entry``; returns the read time.

        A valid entry is a hit.  An expired one (disconnected, or the
        remote round failed) is a stale serve, checked against the
        error oracle all the same.
        """
        read_time = self.local_storage.access(key[0], attr_size)
        self.cache.touch(key, self.env.now)
        is_error = ErrorOracle.is_stale(
            entry.version, self.server.current_version(*key)
        )
        self.bus.emit(
            CacheAccess(
                time=time,
                client_id=self.client_id,
                key=key,
                hit=hit,
                error=is_error,
                answered=True,
                connected=connected,
                stale_served=not hit,
                age_seconds=age_seconds,
            )
        )
        return read_time

    def _record_miss(
        self, key: CacheKey, time: float, answered: bool, connected: bool
    ) -> None:
        """Record a miss: fetched fresh (``answered``) or left unanswered."""
        self.bus.emit(
            CacheAccess(
                time=time,
                client_id=self.client_id,
                key=key,
                hit=False,
                error=False,
                answered=answered,
                connected=connected,
            )
        )

    def _record_fresh_misses(self, probe: "_ProbeResult") -> None:
        """Record a round's deferred misses as answered by the server,
        stamped with the probe instant."""
        for key, __ in probe.deferred:
            self._record_miss(
                key, probe.recorded_at, answered=True, connected=True
            )

    # ------------------------------------------------------------------
    # Probe phase
    # ------------------------------------------------------------------
    def _probe(self, query: Query, connected: bool) -> "_ProbeResult":
        now = self.env.now
        result = _ProbeResult()
        result.recorded_at = now
        # With recovery machinery active, a connected miss may end up
        # served by the server (fresh), by a stale cached entry, or not
        # at all — so its hit/error recording is deferred until the
        # remote round resolves.  Without recovery the round cannot
        # fail, and misses are recorded eagerly exactly as before.
        defer = self.recovery is not None
        seen_existent: set[CacheKey] = set()
        seen_needed: set[CacheKey] = set()
        seen_updates: set[tuple[OID, str]] = set()

        caches_objects = self._caches_objects
        attribute_sizes = self.database.schema.attribute_sizes
        for access in query.accesses:
            oid = access.oid
            # CachingGranularity.key_for, built inline.
            key = (oid, None if caches_objects else access.attribute)
            entry = self.cache.lookup(key)
            valid = entry is not None and entry.is_valid(now)
            attr_size = attribute_sizes[oid.class_name, access.attribute]

            if (
                entry is not None
                and not valid
                and self.bus.wants(RefreshExpired)
            ):
                self.bus.emit(
                    RefreshExpired(
                        time=now,
                        client_id=self.client_id,
                        key=key,
                        age_seconds=now - entry.fetched_at,
                        expired_for_seconds=now - entry.expires_at,
                    )
                )

            if valid:
                result.local_read_time += self._serve_local(
                    key,
                    entry,
                    attr_size,
                    time=now,
                    hit=True,
                    connected=connected,
                    age_seconds=now - entry.fetched_at,
                )
                if (
                    connected
                    and not access.is_update
                    and key not in seen_existent
                ):
                    seen_existent.add(key)
                    result.existent.append(key)
            elif connected:
                if defer:
                    result.deferred.append((key, attr_size))
                else:
                    self._record_miss(key, now, answered=True, connected=True)
                self._add_needed(result, seen_needed, key)
            elif entry is not None:
                # Disconnected: use the expired entry anyway.
                result.local_read_time += self._serve_local(
                    key,
                    entry,
                    attr_size,
                    time=now,
                    hit=False,
                    connected=False,
                    age_seconds=now - entry.fetched_at,
                )
            else:
                self._record_miss(key, now, answered=False, connected=False)

            update_id = (oid, access.attribute)
            if (
                access.is_update
                and connected
                and update_id not in seen_updates
            ):
                seen_updates.add(update_id)
                self._add_needed(result, seen_needed, key)
                result.updates.setdefault(oid, []).append(
                    UpdateValue(
                        attribute=access.attribute,
                        value=self.workload.new_value_for(
                            oid, access.attribute
                        ),
                        size_bytes=attr_size,
                    )
                )

        if result.needed and self.granularity in (
            CachingGranularity.HYBRID,
            CachingGranularity.PAGE,
        ):
            self._collect_held(result, seen_existent, seen_needed, now)
        return result

    def _collect_held(
        self,
        result: "_ProbeResult",
        seen_existent: set[CacheKey],
        seen_needed: set[CacheKey],
        now: float,
    ) -> None:
        """List valid cached attributes of needed objects (HC only).

        These ``held`` entries stop the server's prefetcher from
        re-shipping data this client already holds; they cost uplink
        bytes but save far more on the downlink.  Under HC the held
        units are attributes of needed objects; under PC they are valid
        page-mates of needed objects.
        """
        if self.granularity is CachingGranularity.PAGE:
            page_size = self.objects_per_page
            for oid in list(result.needed):
                page = oid.number // page_size
                for number in range(
                    page * page_size, (page + 1) * page_size
                ):
                    key = (OID(oid.class_name, number), None)
                    if key in seen_existent or key in seen_needed:
                        continue
                    entry = self.cache.lookup(key)
                    if entry is not None and entry.is_valid(now):
                        seen_existent.add(key)
                        result.held.append(key)
            return
        for oid in result.needed:
            class_def = self.database.schema.class_def(oid.class_name)
            for attribute in class_def.attribute_names:
                key = (oid, attribute)
                if key in seen_existent or key in seen_needed:
                    continue
                entry = self.cache.lookup(key)
                if entry is not None and entry.is_valid(now):
                    result.held.append(key)

    def _add_needed(
        self,
        result: "_ProbeResult",
        seen: set[CacheKey],
        key: CacheKey,
    ) -> None:
        if key in seen:
            return
        seen.add(key)
        oid, attribute = key
        if attribute is None:
            result.needed.setdefault(oid, [])
        else:
            result.needed.setdefault(oid, []).append(attribute)

    # ------------------------------------------------------------------
    # Absorb phase
    # ------------------------------------------------------------------
    def _absorb(self, reply: ReplyMessage) -> float:
        """Admit returned items; return the local disk write time."""
        now = self.env.now
        write_bytes = 0
        attribute_sizes = self.database.schema.attribute_sizes
        for item in reply.items:
            if item.attribute is None:
                size = self.database.schema.class_def(
                    item.oid.class_name
                ).object_size_bytes
            else:
                size = (
                    attribute_sizes[item.oid.class_name, item.attribute]
                    + self.attribute_entry_overhead
                )
            expires_at = reply.expiry_deadline(item, now)
            self.cache.admit(
                key=item.key,
                value=item.value,
                version=item.version,
                size_bytes=size,
                now=now,
                expires_at=expires_at,
            )
            write_bytes += size
        if not self.granularity.uses_storage_cache:
            # NC caches in memory only; no disk write cost.
            return 0.0
        return self.local_storage.disk.access_time(write_bytes)


class _ProbeResult:
    """What one probe pass produces.

    ``deferred`` lists connected miss accesses (key, attribute size)
    whose metric recording waits for the remote round's outcome; it is
    only populated when recovery machinery is active.  ``recorded_at``
    is the probe instant every deferred access is stamped with.
    """

    __slots__ = (
        "local_read_time",
        "needed",
        "existent",
        "held",
        "updates",
        "deferred",
        "recorded_at",
    )

    def __init__(self) -> None:
        self.local_read_time = 0.0
        self.needed: dict[OID, list[str]] = {}
        self.existent: list[CacheKey] = []
        self.held: list[CacheKey] = []
        self.updates: dict[OID, list[UpdateValue]] = {}
        self.deferred: list[tuple[CacheKey, int]] = []
        self.recorded_at = 0.0
