"""LRU buffer pools.

The paper fixes LRU for *memory* buffer management at both the server and
the clients ("memory buffer replacement is implemented by the operating
system"), independent of the storage-cache replacement policy under study.
The pool is item-count based (it holds whole objects).
"""

from __future__ import annotations

import typing as t
from collections import OrderedDict

from repro.errors import CacheError

Key = t.Hashable


class BufferPool:
    """A fixed-capacity LRU set of keys with hit/miss accounting."""

    def __init__(self, capacity: int, name: str = "buffer") -> None:
        if capacity < 0:
            raise CacheError(f"capacity must be >= 0, got {capacity!r}")
        self.capacity = capacity
        self.name = name
        self._entries: OrderedDict[Key, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return (
            f"<BufferPool {self.name!r} {len(self._entries)}/{self.capacity}>"
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def access(self, key: Key) -> bool:
        """Touch ``key``; return ``True`` on hit.

        On a miss the key is faulted in, evicting the least recently used
        entry if the pool is full.  A zero-capacity pool never hits.
        """
        if self.capacity == 0:
            self.misses += 1
            return False
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        if len(entries) >= self.capacity:
            entries.popitem(last=False)
        entries[key] = None
        return False

    def evict(self, key: Key) -> bool:
        """Drop ``key`` if present; return whether it was resident."""
        return self._entries.pop(key, False) is None

    def peek(self, key: Key) -> bool:
        """Residency check without LRU side effects or accounting."""
        return key in self._entries

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def keys(self) -> list[Key]:
        """Resident keys from least to most recently used."""
        return list(self._entries)
