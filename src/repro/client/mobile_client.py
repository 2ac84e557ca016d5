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
Experiment #6 uses.  With recovery off the round is single-shot: one
transmission and a wait on the reply box with no deadline.
"""

from __future__ import annotations

import typing as t

from repro.core.coherence import ErrorOracle
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
from repro.metrics.collectors import ClientMetrics
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
from repro.oodb.query import AttributeAccess, Query
from repro.oodb.server import DatabaseServer
from repro.oodb.storage import (
    DISK_BANDWIDTH_BPS,
    MEMORY_BANDWIDTH_BPS,
    StorageModel,
)
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
        disk_bandwidth_bps: float = DISK_BANDWIDTH_BPS,
        memory_bandwidth_bps: float = MEMORY_BANDWIDTH_BPS,
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
        #: Every observable moment is emitted here; a private bus keeps
        #: standalone construction working.
        self.bus = bus if bus is not None else EventBus()
        #: The client's counters, updated where each counted event is
        #: emitted.
        self.metrics = ClientMetrics(client_id)
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
        #: answers.  ``None`` makes the remote round single-shot, with
        #: no deadline on the reply.
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
            buffer_objects,
            disk_bandwidth_bps=disk_bandwidth_bps,
            memory_bandwidth_bps=memory_bandwidth_bps,
            name=f"client-{client_id}",
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
            self._receive(reply, is_trailer=True)
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
        connected = self.network.is_connected(self.client_id)
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

        now = self.env.now
        self.metrics.record_query(now, now - issued_at, connected)
        self.bus.emit(
            QueryComplete(
                time=now,
                client_id=self.client_id,
                query_id=query.query_id,
                response_seconds=now - issued_at,
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

        Without a recovery policy the round is single-shot: transmit,
        enqueue at the server, block on the reply.  With one,
        each attempt transmits (possibly dropped or aborted by the fault
        layer), waits up to the timeout for the matching reply, and
        retries after an exponential backoff with seeded jitter, up to
        the retry budget.  Exhaustion degrades the query to cache-only
        answers at the caller.
        """
        metrics = self.metrics
        attempts = 1 if self.recovery is None else self.recovery.max_attempts
        for attempt in range(attempts):
            # Attempt 0 opens the round; every later attempt is a retry,
            # counted before backoff so a round the horizon (or a
            # scheduled disconnection) cuts mid-backoff still shows it.
            if attempt:
                metrics.retries += 1
            else:
                metrics.remote_rounds += 1
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
                    break
            sent = RequestSent(
                time=self.env.now,
                client_id=self.client_id,
                query_id=request.query_id,
                attempt=attempt,
                size_bytes=request.size_bytes,
            )
            metrics.bytes_sent += sent.size_bytes
            metrics.uplink_series.record(sent.time, float(sent.size_bytes))
            self.bus.emit(sent)
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
                self._receive(reply, is_trailer=False)
                return reply
            metrics.timeouts += 1
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

        Without a recovery policy the wait has no deadline.  With one,
        each get carries the time left until the attempt's deadline and
        fires with ``None`` once it passes; a reply put after that stays
        in the reply box for the next attempt's wait.  Replies of
        earlier, abandoned attempts may still arrive (the server serves
        every request copy it receives); they are discarded by query id
        without ending the wait.
        """
        deadline = (
            None
            if self.recovery is None
            else self.env.now + self.recovery.timeout_seconds
        )
        while True:
            reply = yield self.reply_box.get(
                None if deadline is None else max(deadline - self.env.now, 0.0)
            )
            if reply is None or reply.query_id == request.query_id:
                return reply
            self._note_late_reply(reply)

    def _receive(self, reply: ReplyMessage, is_trailer: bool) -> None:
        """Count a reply the client consumes: a primary reply or a
        prefetch trailer."""
        received = ReplyReceived(
            time=self.env.now,
            client_id=self.client_id,
            query_id=reply.query_id,
            size_bytes=reply.size_bytes,
            is_trailer=is_trailer,
        )
        self.metrics.goodput_bytes += received.size_bytes
        self.bus.emit(received)

    def _note_late_reply(self, reply: ReplyMessage) -> None:
        """A reply for an abandoned attempt arrived: emitted, discarded
        unread (its bytes never enter goodput)."""
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
        read_time = self._read_pass(
            probe.deferred, probe.recorded_at, True, None
        )
        self.metrics.degraded_queries += 1
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

    def _record_fresh_misses(self, probe: "_ProbeResult") -> None:
        """Record a round's deferred misses as answered by the server,
        stamped with the probe instant."""
        deferred = probe.deferred
        stamp = probe.recorded_at
        client_id = self.client_id
        caches_objects = self._caches_objects
        emit = self.bus.emit
        for access in deferred:
            # Positional: time, client_id, key, hit, error, answered,
            # connected (stale_served and age_seconds keep their
            # defaults).
            emit(
                CacheAccess(
                    stamp,
                    client_id,
                    (access.oid, None if caches_objects else access.attribute),
                    False,
                    False,
                    True,
                    True,
                )
            )
        self.metrics.record_reads(stamp, len(deferred), 0, 0, 0, 0)

    # ------------------------------------------------------------------
    # Probe phase
    # ------------------------------------------------------------------
    def _probe(self, query: Query, connected: bool) -> "_ProbeResult":
        result = _ProbeResult()
        result.recorded_at = self.env.now
        result.local_read_time = self._read_pass(
            query.accesses, result.recorded_at, connected, result
        )
        return result

    def _read_pass(
        self,
        accesses: t.Sequence[AttributeAccess],
        stamp: float,
        connected: bool,
        probe: "_ProbeResult | None",
    ) -> float:
        """Read one pass of accesses from the cache; return the read time.

        With ``probe`` the pass is a query's probe and fills ``probe``
        in.  A valid entry is a hit.  On a connected probe every other
        access is a miss the server answers: it goes on the needed list
        and, with recovery machinery active, on the deferred list, since
        the round may yet fail and leave it served stale or not at all.
        Cut off from the server, an expired entry is served anyway and
        an uncached item goes unanswered.  Without ``probe`` the pass is
        a failed round's cache-only answer to its deferred misses, where
        every cached entry is served stale.

        The local-serve rule: a value read from the cache costs a local
        storage read and a policy touch, and is checked against the
        error oracle.  Every access is emitted as a ``CacheAccess``
        stamped ``stamp``, the probe instant (a degraded answer keeps
        its probe's); touches and ages use the clock.  The pass's
        tallies reach the client's metrics in one call at the end.
        """
        now = self.env.now
        client_id = self.client_id
        caches_objects = self._caches_objects
        attribute_sizes = self.database.schema.attribute_sizes
        lookup = self.cache.lookup
        touch = self.cache.touch
        storage_access = self.local_storage.access
        current_version = self.server.current_version
        is_stale = ErrorOracle.is_stale
        emit = self.bus.emit
        probing = probe is not None
        # Only a connected probe can send a miss to the server.
        fetch = connected and probing
        emit_expired = probing and self.bus.wants(RefreshExpired)
        # Without recovery the round cannot fail, so a miss is recorded
        # here as answered; with it, the round's outcome decides.
        defer = self.recovery is not None
        if probing:
            needed = probe.needed
            existent = probe.existent
            deferred = probe.deferred
            updates = probe.updates
        seen_existent: set[CacheKey] = set()
        seen_needed: set[CacheKey] = set()
        seen_updates: set[tuple[OID, str]] = set()
        read_time = 0.0
        hits = stale_served = errors = unanswered = 0

        for access in accesses:
            oid = access.oid
            attribute = access.attribute
            # CachingGranularity.key_for, built inline.
            key = (oid, None if caches_objects else attribute)
            entry = lookup(key)
            valid = False
            if entry is not None and probing:
                valid = entry.is_valid(now)
                if not valid and emit_expired:
                    emit(
                        RefreshExpired(
                            time=now,
                            client_id=client_id,
                            key=key,
                            age_seconds=now - entry.fetched_at,
                            expired_for_seconds=now - entry.expires_at,
                        )
                    )
            need = False
            if valid or (entry is not None and not fetch):
                read_time += storage_access(
                    oid, attribute_sizes[oid.class_name, attribute]
                )
                # The entry's key is the one the policy already holds.
                touch(entry.key, now)
                is_error = is_stale(
                    entry.version, current_version(oid, key[1])
                )
                errors += is_error
                if valid:
                    hits += 1
                else:
                    stale_served += 1
                # Positional.  Field order: time, client_id, key, hit,
                # error, answered, connected, stale_served, age_seconds.
                emit(
                    CacheAccess(
                        stamp,
                        client_id,
                        key,
                        valid,
                        is_error,
                        True,
                        connected,
                        not valid,
                        now - entry.fetched_at,
                    )
                )
                if (
                    valid
                    and fetch
                    and not access.is_update
                    and key not in seen_existent
                ):
                    seen_existent.add(key)
                    existent.append(key)
            elif fetch:
                if defer:
                    deferred.append(access)
                else:
                    emit(
                        CacheAccess(
                            stamp, client_id, key, False, False, True, True
                        )
                    )
                need = True
            else:
                unanswered += 1
                emit(
                    CacheAccess(
                        stamp, client_id, key, False, False, False, connected
                    )
                )

            if fetch and access.is_update:
                update_id = (oid, attribute)
                if update_id not in seen_updates:
                    seen_updates.add(update_id)
                    need = True
                    updates.setdefault(oid, []).append(
                        UpdateValue(
                            attribute=attribute,
                            value=self.workload.new_value_for(oid, attribute),
                            size_bytes=attribute_sizes[
                                oid.class_name, attribute
                            ],
                        )
                    )
            if need and key not in seen_needed:
                seen_needed.add(key)
                if caches_objects:
                    needed.setdefault(oid, [])
                else:
                    needed.setdefault(oid, []).append(attribute)

        self.metrics.record_reads(
            stamp,
            len(accesses) - len(deferred) if probing else len(accesses),
            hits,
            errors,
            stale_served,
            unanswered,
            connected,
        )
        if (
            probe is not None
            and needed
            and self.granularity
            in (CachingGranularity.HYBRID, CachingGranularity.PAGE)
        ):
            self._collect_held(probe, seen_existent, seen_needed, now)
        return read_time

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
        lookup = self.cache.lookup
        resident_count = self.cache.resident_count
        held = result.held
        schema = self.database.schema
        for oid in result.needed:
            if not resident_count(oid):
                # Nothing of this object is cached: no probe can hit.
                continue
            class_def = schema.class_def(oid.class_name)
            for attribute in class_def.attribute_names:
                key = (oid, attribute)
                if key in seen_existent or key in seen_needed:
                    continue
                entry = lookup(key)
                if entry is not None and entry.is_valid(now):
                    held.append(key)

    # ------------------------------------------------------------------
    # Absorb phase
    # ------------------------------------------------------------------
    def _absorb(self, reply: ReplyMessage) -> float:
        """Admit returned items; return the local disk write time."""
        now = self.env.now
        write_bytes = 0
        schema = self.database.schema
        attribute_sizes = schema.attribute_sizes
        overhead = self.attribute_entry_overhead
        admit = self.cache.admit
        expiry_deadline = reply.expiry_deadline
        for item in reply.items:
            oid = item.oid
            attribute = item.attribute
            if attribute is None:
                size = schema.class_def(oid.class_name).object_size_bytes
            else:
                size = attribute_sizes[oid.class_name, attribute] + overhead
            # Positional: key, value, version, size_bytes, now,
            # expires_at.
            admit(
                (oid, attribute),
                item.value,
                item.version,
                size,
                now,
                expiry_deadline(item, now),
            )
            write_bytes += size
        if not self.granularity.uses_storage_cache:
            # NC caches in memory only; no disk write cost.
            return 0.0
        return self.local_storage.disk_time(write_bytes)


class _ProbeResult:
    """What one probe pass produces.

    ``deferred`` lists the query's connected miss accesses whose metric
    recording waits for the remote round's outcome; each recording
    rebuilds the access's cache key and attribute size, so an in-flight
    round holds no tuple per access.  It is only populated when
    recovery machinery is active.  ``recorded_at`` is the probe instant
    every deferred access is stamped with.
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
        self.deferred: list[AttributeAccess] = []
        self.recorded_at = 0.0
