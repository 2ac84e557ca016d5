"""Wire messages and their size accounting.

Section 4: "The size of a remote request and a reply message depends on
the caching granularity, but both have an 11-byte header including an IP
address and a CRC for error detection."  Field sizes for OIDs, attribute
ids, refresh times and the query descriptor are fixed here; DESIGN.md
lists them among the derived settings.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import typing as t

from repro.core.granularity import CacheKey, CachingGranularity
from repro.oodb.objects import OID

#: 11-byte message header (IP address + CRC), per the paper.
HEADER_BYTES = 11
#: Server object identifier on the wire.
OID_BYTES = 8
#: Attribute identifier (the paper's classes have at most a few dozen).
ATTR_ID_BYTES = 1
#: Refresh-time estimate shipped with every returned item.
REFRESH_TIME_BYTES = 4
#: Query descriptor: query id, kind, flags.
QUERY_DESCRIPTOR_BYTES = 8


class UpdateValue(t.NamedTuple):
    """One attribute write carried upstream inside a request."""

    attribute: str
    value: int
    size_bytes: int


@dataclasses.dataclass
class RequestMessage:
    """Client-to-server query request.

    * ``needed`` — per object, the attributes whose values the client
      wants back (empty tuple = the whole object, used by OC/NC);
    * ``existent`` — cache keys the query satisfied locally, so the
      server must not retransmit them (and can update access statistics);
    * ``held`` — further valid cache keys of objects on the needed list
      that this query did *not* touch; they stop the hybrid prefetcher
      from re-shipping attributes the client already has, but do not
      count as accesses in the server's statistics;
    * ``updates`` — attribute writes to apply at the server.

    Size accounting groups entries by object: each distinct OID on the
    wire costs :data:`OID_BYTES` once, each attribute id
    :data:`ATTR_ID_BYTES`, each update its value bytes too.  A message is
    not modified once built, so the size is computed once, at
    construction.
    """

    client_id: int
    query_id: int
    granularity: CachingGranularity
    needed: dict[OID, tuple[str, ...]]
    existent: tuple[CacheKey, ...] = ()
    held: tuple[CacheKey, ...] = ()
    updates: dict[OID, tuple[UpdateValue, ...]] = dataclasses.field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        # Every term is a count or a sum, so no iteration order reaches
        # the result.
        keys = (*self.existent, *self.held)
        oids_on_wire = (
            self.needed.keys()
            | {oid for oid, __ in keys}
            | self.updates.keys()
        )
        attribute_ids = sum(
            len(attrs) for attrs in self.needed.values()
        ) + sum(attribute is not None for __, attribute in keys)
        update_bytes = sum(
            ATTR_ID_BYTES + change.size_bytes
            for changes in self.updates.values()
            for change in changes
        )
        self._size_bytes = (
            HEADER_BYTES
            + QUERY_DESCRIPTOR_BYTES
            + OID_BYTES * len(oids_on_wire)
            + ATTR_ID_BYTES * attribute_ids
            + update_bytes
        )

    # A property, not a field or a cached_property: the benchmark's
    # tracer wraps the class's ``size_bytes`` property to time it.
    @property
    def size_bytes(self) -> int:
        return self._size_bytes

    @property
    def is_pure_update(self) -> bool:
        return not self.needed and bool(self.updates)


class ReplyItem(t.NamedTuple):
    """One returned item: an attribute value or a whole object.

    ``attribute`` is ``None`` for whole objects, in which case ``value``
    is the object's full attribute map and ``version`` its object-level
    version.  ``refresh_time`` is the server's validity estimate
    (``inf`` when the item has no write history yet).
    """

    oid: OID
    attribute: str | None
    value: t.Any
    version: int
    refresh_time: float
    payload_bytes: int

    @property
    def key(self) -> CacheKey:
        return (self.oid, self.attribute)

    @property
    def wire_bytes(self) -> int:
        size = self.payload_bytes + REFRESH_TIME_BYTES
        if self.attribute is not None:
            size += ATTR_ID_BYTES
        return size


# Field readers for sizing a reply without a Python call per item.
_oid_of = operator.itemgetter(ReplyItem._fields.index("oid"))
_attribute_of = operator.itemgetter(ReplyItem._fields.index("attribute"))
_payload_of = operator.itemgetter(ReplyItem._fields.index("payload_bytes"))


@dataclasses.dataclass
class ReplyMessage:
    """Server-to-client reply carrying values and refresh times.

    ``is_trailer`` marks the second half of a split delivery: the server
    sends the *requested* items first (completing the query's response)
    and ships hybrid-caching prefetches as a separate trailing message,
    so prefetch traffic loads the downlink without delaying the query
    that triggered it.
    """

    client_id: int
    query_id: int
    items: tuple[ReplyItem, ...]
    is_trailer: bool = False

    def __post_init__(self) -> None:
        # Sized once, like RequestMessage: the sum of every item's
        # ``wire_bytes``, taken field by field with C-level maps.
        items = self.items
        self._size_bytes = (
            HEADER_BYTES
            + OID_BYTES * len(set(map(_oid_of, items)))
            + sum(map(_payload_of, items))
            + REFRESH_TIME_BYTES * len(items)
            + ATTR_ID_BYTES
            * (len(items) - operator.countOf(map(_attribute_of, items), None))
        )

    # A property for the same reason as RequestMessage.size_bytes.
    @property
    def size_bytes(self) -> int:
        return self._size_bytes

    def expiry_deadline(self, item: ReplyItem, now: float) -> float:
        """Absolute client-side expiry for ``item`` received at ``now``."""
        # ``now + inf`` would be the same value, but a new float object:
        # returning the one shared ``math.inf`` keeps every cache entry
        # that never expires from holding its own.
        if math.isinf(item.refresh_time):
            return math.inf
        return now + item.refresh_time
