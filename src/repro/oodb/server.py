"""The OODB server process.

Serves remote requests from mobile clients: applies updates, reads
qualified items through its memory buffer / disk, estimates refresh
times, decides hybrid-caching prefetches, and ships replies over the
shared downlink.  Replies are delivered by dedicated sender processes so
they queue on the downlink channel exactly as the paper describes for
bursty arrivals ("the results will be queued up at the downstream
channel during bursty period").
"""

from __future__ import annotations

import types
import typing as t

from repro.core.coherence import RefreshTimeEstimator
from repro.core.entry import NEVER_EXPIRES
from repro.core.granularity import CachingGranularity
from repro.core.invalidation import (
    DEFAULT_IR_INTERVAL,
    INVALIDATION_REPORT,
    InvalidationReport,
    REFRESH_TIME,
    WriteLog,
    broadcaster,
)
from repro.core.prefetch import AttributeAccessTracker
from repro.errors import NetworkError
from repro.net.channel import DELIVERED
from repro.net.message import ReplyItem, ReplyMessage, RequestMessage
from repro.net.network import Network
from repro.obs.events import RequestServed
from repro.oodb.database import Database
from repro.oodb.objects import DBObject, OID
from repro.oodb.storage import (
    DISK_BANDWIDTH_BPS,
    MEMORY_BANDWIDTH_BPS,
    StorageModel,
)
from repro.sim.environment import Environment
from repro.sim.resources import Store

#: The paper's server memory buffer: 25% of the 2000-object database.
DEFAULT_SERVER_BUFFER_OBJECTS = 500

DeliverFn = t.Callable[[ReplyMessage], None]

#: A refresh-time table: an item's key to its validity duration; a key
#: with no row never expires.
RefreshTimes = t.Mapping[t.Hashable, float]

#: What a client holds of an object it sent no held keys for.
_NO_ATTRIBUTES: frozenset[str] = frozenset()

#: The table under invalidation reports: no rows, so every item is
#: valid until invalidated.
_NO_REFRESH_TIMES: RefreshTimes = types.MappingProxyType({})

#: ``ReplyItem``'s C-level constructor: the class's own ``__new__`` is a
#: Python function, one call per item built.
_new_tuple = tuple.__new__


class DatabaseServer:
    """One OODB server with an LRU memory buffer over its disk."""

    def __init__(
        self,
        env: Environment,
        database: Database,
        network: Network,
        buffer_capacity: int = DEFAULT_SERVER_BUFFER_OBJECTS,
        beta: float = 0.0,
        prefetch_tracker: AttributeAccessTracker | None = None,
        split_delivery: bool = True,
        trailer_drop_queue_threshold: int | None = None,
        objects_per_page: int = 4,
        coherence_mode: str = REFRESH_TIME,
        ir_interval: float = DEFAULT_IR_INTERVAL,
        ir_object_keys: bool = False,
        disk_bandwidth_bps: float = DISK_BANDWIDTH_BPS,
        memory_bandwidth_bps: float = MEMORY_BANDWIDTH_BPS,
        name: str = "server-0",
    ) -> None:
        if objects_per_page < 1:
            raise NetworkError(
                f"objects per page must be >= 1, got {objects_per_page!r}"
            )
        self.env = env
        self.database = database
        self.network = network
        self.name = name
        self.inbox: Store = Store(env, name=f"{name}-inbox")
        self.storage = StorageModel(
            buffer_capacity,
            disk_bandwidth_bps=disk_bandwidth_bps,
            memory_bandwidth_bps=memory_bandwidth_bps,
            name=name,
        )
        #: Attribute-level write statistics (AC/HC refresh times).
        self.attribute_estimator = RefreshTimeEstimator(beta)
        #: Object-level write statistics (OC/NC refresh times).
        self.object_estimator = RefreshTimeEstimator(beta)
        self.prefetch_tracker = prefetch_tracker or AttributeAccessTracker()
        #: Ship HC prefetches as a trailing message (True) or inline in
        #: the primary reply (False, the naive scheme).
        self.split_delivery = split_delivery
        #: The paper's Experiment #3 timeout heuristic: when the shared
        #: downlink's queue exceeds this many waiting messages, prefetch
        #: trailers are dropped instead of transmitted, shedding load
        #: during bursts.  ``None`` disables the heuristic.
        self.trailer_drop_queue_threshold = trailer_drop_queue_threshold
        #: Page size for the PC (page caching) baseline: a page is the
        #: run of ``objects_per_page`` consecutive OIDs containing the
        #: requested object — the server's physical clustering, which no
        #: mobile client's access pattern matches.
        self.objects_per_page = int(objects_per_page)
        #: Coherence strategy: the paper's refresh-time scheme, or the
        #: broadcast invalidation-report baseline from [2].
        self.coherence_mode = coherence_mode
        self.ir_interval = float(ir_interval)
        #: Whether IRs carry object keys (OC/NC/PC) or attribute keys.
        self.ir_object_keys = ir_object_keys
        self.write_log = WriteLog()
        self._deliver_fns: dict[int, DeliverFn] = {}
        self._report_fns: dict[int, t.Callable[[InvalidationReport], None]] = {}
        # Counters for reports and tests.
        self.requests_served = 0
        self.updates_applied = 0
        self.items_returned = 0
        self.items_prefetched = 0
        self.trailers_dropped = 0
        #: Replies/trailers lost on the downlink (fault layer: corrupted
        #: in flight, or cut by the destination's disconnection window).
        self.replies_lost = 0
        self.trailers_lost = 0

    def __repr__(self) -> str:
        return f"<DatabaseServer {self.name!r} served={self.requests_served}>"

    def register_client(
        self,
        client_id: int,
        deliver: DeliverFn,
        on_report: "t.Callable[[InvalidationReport], None] | None" = None,
    ) -> None:
        """Register the delivery callback(s) for one client."""
        if client_id in self._deliver_fns:
            raise NetworkError(f"client {client_id} registered twice")
        self._deliver_fns[client_id] = deliver
        if on_report is not None:
            self._report_fns[client_id] = on_report

    def start(self) -> None:
        """Launch the server's request-handling process."""
        self.env.process(self._run(), name=self.name)
        if self.coherence_mode == INVALIDATION_REPORT:
            self.env.process(
                broadcaster(
                    self.env,
                    self.write_log,
                    self.network.broadcast,
                    self._broadcast_report,
                    interval=self.ir_interval,
                ),
                name=f"{self.name}-ir-broadcaster",
            )

    def close(self) -> None:
        """Forget the clients and drop the inbox's waiting get, for
        good.  A client's callbacks hold the client, which holds this
        server; the counters stay readable."""
        self._deliver_fns.clear()
        self._report_fns.clear()
        self.inbox.close()

    def _broadcast_report(self, report: InvalidationReport) -> None:
        for on_report in self._report_fns.values():
            on_report(report)

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def _run(self) -> t.Generator[t.Any, t.Any, None]:
        while True:
            request = yield self.inbox.get()
            reply, trailer, service_time = self.serve(request)
            if service_time > 0:
                yield self.env.timeout(service_time)
            self.env.process(
                self._send(reply, trailer),
                name=f"{self.name}-send-{reply.query_id}",
            )

    def _send(
        self, reply: ReplyMessage, trailer: ReplyMessage | None
    ) -> t.Generator[t.Any, t.Any, None]:
        deliver = self._deliver_fns.get(reply.client_id)
        if deliver is None:
            raise NetworkError(
                f"no delivery route for client {reply.client_id}"
            )
        outcome = yield from self.network.downlink.transmit(
            reply.size_bytes,
            deadline=self.network.abort_deadline(reply.client_id),
        )
        if outcome != DELIVERED:
            # The reply was corrupted or cut by the destination's
            # disconnection; the client's timeout/retry machinery will
            # re-request.  The trailer would be equally undeliverable.
            self.replies_lost += 1
            return
        deliver(reply)
        if trailer is not None:
            threshold = self.trailer_drop_queue_threshold
            if (
                threshold is not None
                and self.network.downlink.queue_length >= threshold
            ):
                # Timeout heuristic: the downlink is backed up, so shed
                # the prefetch trailer rather than worsen the queue.
                self.trailers_dropped += 1
                return
            # Prefetches trail the requested items: they occupy the
            # downlink (and can congest it under bursty load) but never
            # delay the response of the query that triggered them.
            outcome = yield from self.network.downlink.transmit(
                trailer.size_bytes,
                deadline=self.network.abort_deadline(reply.client_id),
            )
            if outcome == DELIVERED:
                deliver(trailer)
            else:
                self.trailers_lost += 1

    def serve(
        self, request: RequestMessage
    ) -> tuple[ReplyMessage, ReplyMessage | None, float]:
        """Process one request synchronously.

        Returns (reply, prefetch trailer or ``None``, service time).
        Split out from the process loop so unit tests can drive the
        server without a running event loop.
        """
        now = self.env.now
        service_time = 0.0
        self.requests_served += 1
        client_id = request.client_id
        # The tracker counts per (client, class): one call per class
        # counts what one call per object would.
        record_access = self.prefetch_tracker.record_access
        for class_name, names in _accessed_names(request).items():
            record_access(client_id, class_name, names)

        # The write log's only reader is the IR broadcaster; under
        # refresh-time coherence nothing would ever prune it.
        logged = self.coherence_mode == INVALIDATION_REPORT
        for oid, changes in request.updates.items():
            obj = self.database.get(oid)
            service_time += self.storage.write(oid, obj.size_bytes)
            for change in changes:
                obj.write(change.attribute, change.value, now)
                self.attribute_estimator.record_write(
                    (oid, change.attribute), now
                )
                if logged and not self.ir_object_keys:
                    self.write_log.record((oid, change.attribute), now)
                self.updates_applied += 1
            self.object_estimator.record_write(oid, now)
            if logged and self.ir_object_keys:
                self.write_log.record((oid, None), now)

        items: list[ReplyItem] = []
        prefetched: list[ReplyItem] = []
        granularity = request.granularity
        database_get = self.database.get
        storage_access = self.storage.access
        if granularity.caches_objects:
            object_times = self._refresh_times(self.object_estimator)
            page = granularity is CachingGranularity.PAGE
            if page:
                # Page-mates the client holds are not re-sent.
                held_objects = _object_keys(request.existent, request.held)
                sent_objects: set[OID] = set()
            for oid in request.needed:
                obj = database_get(oid)
                service_time += storage_access(oid, obj.size_bytes)
                if page:
                    service_time += self._serve_page(
                        oid, held_objects, sent_objects, items, object_times
                    )
                else:
                    items.append(self._whole_object_item(obj, object_times))
        else:
            refresh_time_of = self._refresh_times(
                self.attribute_estimator
            ).get
            hybrid = granularity is CachingGranularity.HYBRID
            if hybrid:
                # What the client already has stops HC re-shipping it.
                client_has = _attrs_by_oid(request.existent, request.held)
                prefetch_set = self.prefetch_tracker.prefetch_set
                hot_by_class: dict[str, frozenset[str]] = {}
            extras: t.Sequence[str] = ()
            for oid, attributes in request.needed.items():
                obj = database_get(oid)
                service_time += storage_access(oid, obj.size_bytes)
                obj_oid = obj.oid
                class_def = obj.class_def
                if hybrid:
                    # HC extras: hot attributes the client neither
                    # asked for nor holds, in name order.  The
                    # statistics only change between requests, so one
                    # prefetch set per class serves the whole request.
                    hot = hot_by_class.get(class_def.name)
                    if hot is None:
                        hot = hot_by_class[class_def.name] = prefetch_set(
                            client_id, class_def
                        )
                    extras = sorted(
                        hot.difference(
                            attributes, client_has.get(obj_oid, _NO_ATTRIBUTES)
                        )
                    )
                states = obj.attribute_states
                for names, out in ((attributes, items), (extras, prefetched)):
                    for attribute in names:
                        try:
                            state = states[attribute]
                        except KeyError:
                            # Raises the schema's error for the name.
                            state = obj.attribute_state(attribute)
                        refresh_time = refresh_time_of(
                            (obj_oid, attribute), NEVER_EXPIRES
                        )
                        # Reuse the last item built for this attribute
                        # while it is exact.  OID, attribute and payload
                        # size are fixed; value and version move together
                        # on a write; the refresh time is compared as is,
                        # so an item another server sharing this
                        # database built (another beta or coherence
                        # mode) is reused only when it is identical.
                        item = state.last_reply
                        if (
                            item is None
                            or item.version != state.version
                            or item.refresh_time != refresh_time
                        ):
                            item = state.last_reply = _new_tuple(
                                ReplyItem,
                                (
                                    obj_oid,
                                    attribute,
                                    state.value,
                                    state.version,
                                    refresh_time,
                                    class_def.attributes[attribute].size_bytes,
                                ),
                            )
                        out.append(item)
        self.items_returned += len(items)
        self.items_prefetched += len(prefetched)
        reply_items = tuple(items)
        trailer = None
        if prefetched and self.split_delivery:
            trailer = ReplyMessage(
                client_id=request.client_id,
                query_id=request.query_id,
                items=tuple(prefetched),
                is_trailer=True,
            )
        elif prefetched:
            reply_items += tuple(prefetched)
        reply = ReplyMessage(
            client_id=request.client_id,
            query_id=request.query_id,
            items=reply_items,
        )
        bus = self.network.bus
        if bus.wants(RequestServed):
            bus.emit(
                RequestServed(
                    time=now,
                    client_id=request.client_id,
                    query_id=request.query_id,
                    items=len(items),
                    prefetched=len(prefetched),
                    updates=sum(
                        len(changes)
                        for changes in request.updates.values()
                    ),
                    service_seconds=service_time,
                )
            )
        return reply, trailer, service_time

    # ------------------------------------------------------------------
    # Page serving (the PC baseline)
    # ------------------------------------------------------------------
    def _page_members(self, oid: OID) -> list[OID]:
        """OIDs of the page containing ``oid`` (consecutive numbers)."""
        page = oid.number // self.objects_per_page
        first = page * self.objects_per_page
        members = []
        for number in range(first, first + self.objects_per_page):
            candidate = OID(oid.class_name, number)
            if candidate in self.database:
                members.append(candidate)
        return members

    def _serve_page(
        self,
        oid: OID,
        held_objects: set[OID],
        sent_objects: set[OID],
        items: list[ReplyItem],
        object_times: RefreshTimes,
    ) -> float:
        """Append the whole page containing ``oid``; return extra service
        time for page-mates (the requested object's read is already
        charged by the caller).  Page-mates the client holds valid are
        skipped; the requested object itself is always sent."""
        service_time = 0.0
        for member in self._page_members(oid):
            if member in sent_objects:
                continue
            if member != oid and member in held_objects:
                continue
            sent_objects.add(member)
            member_obj = self.database.get(member)
            if member != oid:
                service_time += self.storage.access(
                    member, member_obj.size_bytes
                )
            items.append(self._whole_object_item(member_obj, object_times))
        return service_time

    # ------------------------------------------------------------------
    # Item construction
    # ------------------------------------------------------------------
    def _whole_object_item(
        self, obj: DBObject, object_times: RefreshTimes
    ) -> ReplyItem:
        values = {
            name: obj.read(name) for name in obj.class_def.attribute_names
        }
        payload = sum(
            attribute.size_bytes
            for attribute in obj.class_def.attributes.values()
        )
        return ReplyItem(
            oid=obj.oid,
            attribute=None,
            value=values,
            version=obj.object_version,
            refresh_time=object_times.get(obj.oid, NEVER_EXPIRES),
            payload_bytes=payload,
        )

    def _refresh_times(self, estimator: RefreshTimeEstimator) -> RefreshTimes:
        """The table items are stamped from under the active coherence
        mode: the estimator's, or, under invalidation reports, where
        entries stay valid until invalidated, one with no rows."""
        if self.coherence_mode == INVALIDATION_REPORT:
            return _NO_REFRESH_TIMES
        return estimator.times

    # ------------------------------------------------------------------
    # Oracle access for the error metric
    # ------------------------------------------------------------------
    def current_version(self, oid: OID, attribute: str | None) -> int:
        """Perfect-knowledge version lookup used by the error oracle."""
        obj = self.database.get(oid)
        if attribute is None:
            return obj.object_version
        return obj.attribute_state(attribute).version


def _accessed_names(request: RequestMessage) -> dict[str, list[str]]:
    """Every attribute name ``request`` lists as accessed, per class: the
    needed ones, then the existent ones.  A name listed twice counts
    twice; object keys (no attribute) are left out."""
    out: dict[str, list[str]] = {}
    for oid, attributes in request.needed.items():
        if attributes:
            names = out.get(oid.class_name)
            if names is None:
                out[oid.class_name] = list(attributes)
            else:
                names.extend(attributes)
    for oid, attribute in request.existent:
        if attribute is not None:
            names = out.get(oid.class_name)
            if names is None:
                out[oid.class_name] = [attribute]
            else:
                names.append(attribute)
    return out


def _attrs_by_oid(*key_lists: tuple) -> dict[OID, set[str]]:
    """Group attribute-grained cache keys by OID (object keys ignored)."""
    out: dict[OID, set[str]] = {}
    for keys in key_lists:
        for oid, attribute in keys:
            if attribute is not None:
                attributes = out.get(oid)
                if attributes is None:
                    out[oid] = {attribute}
                else:
                    attributes.add(attribute)
    return out


def _object_keys(*key_lists: tuple) -> set[OID]:
    """OIDs of object-grained cache keys (attribute keys ignored)."""
    out: set[OID] = set()
    for keys in key_lists:
        for oid, attribute in keys:
            if attribute is None:
                out.add(oid)
    return out
