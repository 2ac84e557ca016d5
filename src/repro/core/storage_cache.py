"""The client's storage cache: capacity accounting + policy-driven eviction.

This is the cache the paper's replacement policies manage.  Capacity is
in *bytes* so attribute-grained and object-grained schemes share one
implementation: 400 objects of 1024 bytes hold 400 cached objects under
OC, or several thousand attribute values under AC/HC.

Beside the entries the cache counts its resident keys per object (the
paper's §3.1.1 cache table keeps one surrogate per remote object), so a
caller can skip an object with nothing resident without probing each of
its attributes.
"""

from __future__ import annotations

import typing as t

from repro.core.entry import CacheEntry
from repro.core.granularity import CacheKey
from repro.core.replacement.base import ReplacementPolicy
from repro.errors import CacheError
from repro.obs.bus import EventBus
from repro.obs.events import (
    CacheAdmit,
    CacheEvict,
    CacheInvalidate,
    CacheRefresh,
    CacheReject,
)
from repro.oodb.objects import OID


class ClientStorageCache:
    """Byte-budgeted cache of :class:`CacheEntry` values."""

    def __init__(
        self,
        capacity_bytes: int,
        policy: ReplacementPolicy,
        name: str = "storage-cache",
        bus: EventBus | None = None,
        client_id: int = -1,
    ) -> None:
        if capacity_bytes <= 0:
            raise CacheError(
                f"capacity must be positive, got {capacity_bytes!r}"
            )
        self.capacity_bytes = int(capacity_bytes)
        self.policy = policy
        self.name = name
        self.bus = bus if bus is not None else EventBus()
        self.client_id = client_id
        self._entries: dict[CacheKey, CacheEntry] = {}
        #: OID -> number of its keys in ``_entries``; objects with none
        #: have no row.
        self._resident: dict[OID, int] = {}
        self.used_bytes = 0
        self.admissions = 0
        self.evictions = 0
        self.rejections = 0

    def __repr__(self) -> str:
        return (
            f"<ClientStorageCache {self.name!r} "
            f"{self.used_bytes}/{self.capacity_bytes}B "
            f"entries={len(self._entries)} policy={self.policy.describe()}>"
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def resident_count(self, oid: OID) -> int:
        """How many keys of object ``oid`` are resident, valid or not."""
        return self._resident.get(oid, 0)

    def lookup(self, key: CacheKey) -> CacheEntry | None:
        """Return the entry for ``key`` without touching policy state."""
        return self._entries.get(key)

    def touch(self, key: CacheKey, now: float) -> None:
        """Record an access to a resident key with the policy."""
        if key not in self._entries:
            raise CacheError(f"touch of non-resident key {key!r}")
        self.policy.on_access(key, now)

    def admit(
        self,
        key: CacheKey,
        value: t.Any,
        version: int,
        size_bytes: int,
        now: float,
        expires_at: float,
    ) -> list[CacheKey]:
        """Insert (or refresh) ``key``; return the keys evicted to fit.

        Refreshing a resident key updates its value/version/deadline in
        place and counts as an access.  Items larger than the whole cache
        are rejected — a caller bug, not an eviction storm.

        When the insert would force an eviction, the policy's
        :meth:`~repro.core.replacement.base.ReplacementPolicy.should_admit`
        hook is consulted first; a denial leaves the cache untouched
        (no victim, no insert) and returns ``[]`` after emitting a
        guarded :class:`CacheReject`.
        """
        existing = self._entries.get(key)
        if existing is not None:
            existing.refresh(value, version, now, expires_at)
            # The stored key, not the caller's equal tuple: a policy
            # record made now must not pin a second copy of the key.
            self.policy.on_access(existing.key, now)
            if self.bus.wants(CacheRefresh):
                self.bus.emit(
                    CacheRefresh(
                        time=now,
                        client_id=self.client_id,
                        cache=self.name,
                        key=key,
                        expires_at=expires_at,
                    )
                )
            return []
        if size_bytes > self.capacity_bytes:
            raise CacheError(
                f"item {key!r} ({size_bytes}B) exceeds cache capacity "
                f"({self.capacity_bytes}B)"
            )
        evicted: list[CacheKey] = []
        if self.used_bytes + size_bytes > self.capacity_bytes:
            if not self.policy.should_admit(key, now):
                self.rejections += 1
                if self.bus.wants(CacheReject):
                    self.bus.emit(
                        CacheReject(
                            time=now,
                            client_id=self.client_id,
                            cache=self.name,
                            key=key,
                            size_bytes=size_bytes,
                        )
                    )
                return []
            # Asked only when something must go: most admits fit.
            trace_evicts = self.bus.wants(CacheEvict)
            while self.used_bytes + size_bytes > self.capacity_bytes:
                victim = self.policy.evict(now)
                victim_entry = self._entries.pop(victim)
                self._drop_resident(victim[0])
                self.used_bytes -= victim_entry.size_bytes
                self.evictions += 1
                evicted.append(victim)
                if trace_evicts:
                    self.bus.emit(
                        CacheEvict(
                            time=now,
                            client_id=self.client_id,
                            cache=self.name,
                            key=victim,
                            size_bytes=victim_entry.size_bytes,
                            score=self.policy.last_eviction_score,
                        )
                    )
        # Positional: key, value, version, size_bytes, fetched_at,
        # expires_at.
        self._entries[key] = CacheEntry(
            key, value, version, size_bytes, now, expires_at
        )
        oid = key[0]
        self._resident[oid] = self._resident.get(oid, 0) + 1
        self.used_bytes += size_bytes
        self.policy.on_admit(key, now)
        self.admissions += 1
        if self.bus.wants(CacheAdmit):
            self.bus.emit(
                CacheAdmit(
                    time=now,
                    client_id=self.client_id,
                    cache=self.name,
                    key=key,
                    size_bytes=size_bytes,
                    evictions=len(evicted),
                    expires_at=expires_at,
                    capacity_bytes=self.capacity_bytes,
                )
            )
        return evicted

    def invalidate(self, key: CacheKey, now: float) -> bool:
        """Drop ``key`` if resident; return whether it was.

        ``now`` is the caller's simulation clock.  It stamps the
        guarded :class:`CacheInvalidate` event and keeps trace
        timestamps monotone — a defaulted ``now=0.0`` here used to
        rewind score-based policies' event timelines, so the clock is
        now required.
        """
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._drop_resident(key[0])
        self.used_bytes -= entry.size_bytes
        self.policy.remove(key)
        if self.bus.wants(CacheInvalidate):
            self.bus.emit(
                CacheInvalidate(
                    time=now,
                    client_id=self.client_id,
                    cache=self.name,
                    key=key,
                    size_bytes=entry.size_bytes,
                )
            )
        return True

    def _drop_resident(self, oid: OID) -> None:
        count = self._resident[oid] - 1
        if count:
            self._resident[oid] = count
        else:
            del self._resident[oid]

    def clear(self, now: float) -> None:
        """Drop everything (used when a client's cache is reset)."""
        for key in list(self._entries):
            self.invalidate(key, now)

    def keys(self) -> list[CacheKey]:
        return list(self._entries)

    def valid_fraction(self, now: float) -> float:
        """Share of resident entries whose refresh time has not expired."""
        if not self._entries:
            return 0.0
        valid = sum(
            1 for entry in self._entries.values() if entry.is_valid(now)
        )
        return valid / len(self._entries)

    def check_invariants(self) -> None:
        """Assert internal consistency (used by property tests)."""
        recomputed = sum(e.size_bytes for e in self._entries.values())
        if recomputed != self.used_bytes:
            raise CacheError(
                f"byte accounting drifted: {recomputed} != {self.used_bytes}"
            )
        if self.used_bytes > self.capacity_bytes:
            raise CacheError("cache over capacity")
        if len(self.policy) != len(self._entries):
            raise CacheError(
                f"policy tracks {len(self.policy)} keys, "
                f"cache holds {len(self._entries)}"
            )
        for key in self._entries:
            if key not in self.policy:
                raise CacheError(f"{key!r} missing from policy")
        per_oid: dict[OID, int] = {}
        for oid, __ in self._entries:
            per_oid[oid] = per_oid.get(oid, 0) + 1
        if per_oid != self._resident:
            raise CacheError(
                f"per-object resident counts drifted: {self._resident} "
                f"!= {per_oid}"
            )
