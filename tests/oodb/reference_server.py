"""A reference ``DatabaseServer.serve``: one call per item, nothing reused.

:class:`ReferenceServer` serves a request the straightforward way the
server once did: it feeds the prefetch tracker one call per accessed
object, asks for the prefetch set once per qualified object, builds
every reply item in its own method call with nothing reused, and stamps
each item with a refresh time computed from the key's write-gap tally,
never from the estimator's table.  :func:`reference_size` sizes a reply
from its items' ``wire_bytes``.  ``tests/oodb/test_serve_oracle.py``
runs it beside the real server on drawn request streams.
"""

from __future__ import annotations

import math
import typing as t

from repro.core.coherence import RefreshTimeEstimator
from repro.core.granularity import CachingGranularity
from repro.core.invalidation import INVALIDATION_REPORT
from repro.net.message import (
    HEADER_BYTES,
    OID_BYTES,
    ReplyItem,
    ReplyMessage,
    RequestMessage,
)
from repro.obs.events import RequestServed
from repro.oodb.objects import DBObject, OID
from repro.oodb.server import DatabaseServer

RefreshTimeFn = t.Callable[[t.Hashable], float]


def reference_size(message: ReplyMessage) -> int:
    """A reply's wire size: the header, each distinct OID once, and
    every item's ``wire_bytes``."""
    return (
        HEADER_BYTES
        + OID_BYTES * len({item.oid for item in message.items})
        + sum(item.wire_bytes for item in message.items)
    )


def tally_refresh_time(estimator: RefreshTimeEstimator, key: t.Hashable) -> float:
    """``max(0, mean + beta * std)`` of ``key``'s write gaps, from its
    tally; infinite before the first gap."""
    stats = estimator._stats.get(key)
    if stats is None or stats._tally.count == 0:
        return math.inf
    tally = stats._tally
    return max(0.0, tally.mean + estimator.beta * tally.std)


class ReferenceServer(DatabaseServer):
    """``DatabaseServer`` with the per-item, per-object serve path."""

    def serve(
        self, request: RequestMessage
    ) -> tuple[ReplyMessage, ReplyMessage | None, float]:
        now = self.env.now
        service_time = 0.0
        self.requests_served += 1
        self._record_access_statistics(request)

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
        client_has: dict[OID, set[str]] = {}
        held_objects: set[OID] = set()
        for oid, attribute in (*request.existent, *request.held):
            if attribute is None:
                held_objects.add(oid)
            else:
                client_has.setdefault(oid, set()).add(attribute)
        sent_objects: set[OID] = set()
        attribute_times = self._refresh_time_of(self.attribute_estimator)
        for oid, attributes in request.needed.items():
            obj = self.database.get(oid)
            service_time += self.storage.access(oid, obj.size_bytes)
            if granularity is CachingGranularity.PAGE:
                service_time += self._reference_page(
                    oid, held_objects, sent_objects, items
                )
            elif granularity.caches_objects:
                items.append(self._reference_object_item(obj))
            else:
                for attribute in attributes:
                    items.append(
                        self._attribute_item(obj, attribute, attribute_times)
                    )
                if granularity is CachingGranularity.HYBRID:
                    hot = self.prefetch_tracker.prefetch_set(
                        request.client_id, obj.class_def
                    )
                    for attribute in sorted(
                        hot.difference(attributes, client_has.get(oid, set()))
                    ):
                        prefetched.append(
                            self._attribute_item(obj, attribute, attribute_times)
                        )
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
                        len(changes) for changes in request.updates.values()
                    ),
                    service_seconds=service_time,
                )
            )
        return reply, trailer, service_time

    def _reference_page(
        self,
        oid: OID,
        held_objects: set[OID],
        sent_objects: set[OID],
        items: list[ReplyItem],
    ) -> float:
        service_time = 0.0
        first = oid.number // self.objects_per_page * self.objects_per_page
        for number in range(first, first + self.objects_per_page):
            member = OID(oid.class_name, number)
            if member not in self.database or member in sent_objects:
                continue
            if member != oid and member in held_objects:
                continue
            sent_objects.add(member)
            member_obj = self.database.get(member)
            if member != oid:
                service_time += self.storage.access(
                    member, member_obj.size_bytes
                )
            items.append(self._reference_object_item(member_obj))
        return service_time

    def _reference_object_item(self, obj: DBObject) -> ReplyItem:
        return ReplyItem(
            oid=obj.oid,
            attribute=None,
            value={
                name: obj.read(name) for name in obj.class_def.attribute_names
            },
            version=obj.object_version,
            refresh_time=self._refresh_time_of(self.object_estimator)(
                obj.oid
            ),
            payload_bytes=sum(
                attribute.size_bytes
                for attribute in obj.class_def.attributes.values()
            ),
        )

    def _attribute_item(
        self, obj: DBObject, attribute: str, refresh_time_of: RefreshTimeFn
    ) -> ReplyItem:
        return ReplyItem(
            oid=obj.oid,
            attribute=attribute,
            value=obj.read(attribute),
            version=obj.version_of(attribute),
            refresh_time=refresh_time_of((obj.oid, attribute)),
            payload_bytes=obj.class_def.attribute(attribute).size_bytes,
        )

    def _refresh_time_of(self, estimator: RefreshTimeEstimator) -> RefreshTimeFn:
        if self.coherence_mode == INVALIDATION_REPORT:
            return lambda key: math.inf
        return lambda key: tally_refresh_time(estimator, key)

    def _record_access_statistics(self, request: RequestMessage) -> None:
        """One tracker call per accessed object: its needed names, then
        its existent ones."""
        accessed: dict[OID, list[str]] = {}
        for oid, attributes in request.needed.items():
            if attributes:
                accessed[oid] = list(attributes)
        for oid, attribute in request.existent:
            if attribute is not None:
                accessed.setdefault(oid, []).append(attribute)
        for oid, attributes in accessed.items():
            self.prefetch_tracker.record_access(
                request.client_id, oid.class_name, attributes
            )
