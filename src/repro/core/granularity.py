"""Caching granularities (Section 3.1 of the paper).

* **NC** — no storage caching: only the client's small memory buffer holds
  recently used objects (the paper's base case).
* **AC** — attribute caching: individual attribute values are cached.
* **OC** — object caching: whole objects are cached (the server pushes all
  attributes of every qualified object).
* **HC** — hybrid caching: attributes of qualified objects are prefetched
  only when their access probability clears a threshold.
* **PC** — page caching: the conventional client-server baseline the
  paper's Section 2 argues against.  Objects are cached individually but
  *transferred* a page at a time (a page is a fixed run of consecutive
  OIDs — the server's physical layout, which matches no mobile client's
  access locality).

A *cache key* identifies a cacheable unit: ``(oid, attribute)`` for the
attribute-grained schemes and ``(oid, None)`` for the object-grained ones
(PC included — the page is a transfer unit, not a residency unit).
"""

from __future__ import annotations

import enum

from repro.errors import ConfigurationError
from repro.oodb.objects import OID

#: Identity of one cached unit.
CacheKey = tuple[OID, "str | None"]


class CachingGranularity(enum.Enum):
    """The four schemes evaluated in the paper."""

    NO_CACHING = "NC"
    ATTRIBUTE = "AC"
    OBJECT = "OC"
    HYBRID = "HC"
    PAGE = "PC"

    @classmethod
    def parse(cls, label: str) -> "CachingGranularity":
        """Parse a paper-style label ("NC", "AC", "OC", "HC")."""
        try:
            return _BY_LABEL[label.upper()]
        except KeyError:
            raise ConfigurationError(
                f"unknown granularity {label!r}; expected one of "
                f"{sorted(_BY_LABEL)}"
            ) from None

    @property
    def caches_objects(self) -> bool:
        """Whether the cached unit is a whole object."""
        return self in (CachingGranularity.NO_CACHING,
                        CachingGranularity.OBJECT,
                        CachingGranularity.PAGE)

    @property
    def uses_storage_cache(self) -> bool:
        """NC disables the client's storage (disk) cache."""
        return self is not CachingGranularity.NO_CACHING

    @property
    def prefetches(self) -> bool:
        """Whether the server pushes data beyond what was requested."""
        return self in (
            CachingGranularity.OBJECT,
            CachingGranularity.HYBRID,
            CachingGranularity.PAGE,
        )

    def key_for(self, oid: OID, attribute: str) -> CacheKey:
        """Cache key of an attribute access under this granularity."""
        if self.caches_objects:
            return (oid, None)
        return (oid, attribute)


_BY_LABEL = {member.value: member for member in CachingGranularity}
