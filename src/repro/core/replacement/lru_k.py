"""LRU-k replacement (O'Neil, O'Neil and Weikum, SIGMOD 1993).

The victim is the key with the maximal *backward k-distance*: the key
whose k-th most recent access lies furthest in the past.  Keys with fewer
than k recorded accesses have infinite backward k-distance and are evicted
first (ties broken by their most recent access, i.e. LRU among them) —
which is exactly what makes LRU-k scan-resistant and strong on the cyclic
pattern of the paper's Figure 6.
"""

from __future__ import annotations

import math
from collections import deque

from repro.core.granularity import CacheKey
from repro.core.replacement.base import (
    LazyScoreHeap,
    ReplacementPolicy,
    register_policy,
)


class LRUKPolicy(ReplacementPolicy):
    """Evict by oldest k-th most recent access time.

    Access history is *retained* after eviction (the algorithm's retained
    information), so a key that cycles in and out of the cache keeps
    accumulating history and can out-rank stale residents once it has k
    accesses.  Without retention, any shift in the hot set locks the
    policy onto the old one forever: every newcomer has an infinite
    k-distance and is sacrificed first.  The ghost table is bounded;
    least recently touched ghosts are dropped.
    """

    #: Retained-history bound: plenty for a 2000-object database at any
    #: of the granularities while keeping memory finite.
    MAX_GHOSTS = 65_536

    def __init__(self, k: int = 2) -> None:
        k = int(k)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k!r}")
        self.k = k
        self.name = f"lru-{k}"
        self._resident: set[CacheKey] = set()
        self._history: dict[CacheKey, deque[float]] = {}
        self._heap = LazyScoreHeap()

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def lazy_stores(self) -> dict[str, tuple[int, int]]:
        return {"heap": self._heap.sizes()}

    def _score(self, history: deque[float]) -> tuple[float, float]:
        """(k-th most recent access, most recent access); -inf when absent.

        Minimal tuple = first victim, so the ordering is: keys missing k
        accesses first (oldest last-access among them), then by oldest
        k-th access.
        """
        kth = history[0] if len(history) == self.k else -math.inf
        return (kth, history[-1])

    def on_admit(self, key: CacheKey, now: float) -> None:
        self._require_absent(key)
        history = self._history.pop(key, None)
        if history is None:
            history = deque([now], maxlen=self.k)
        else:
            history.append(now)
        # Re-keyed by the admitted key object, so a returning ghost does
        # not keep its evicted (equal) key alive beside the cache's.
        self._history[key] = history
        self._resident.add(key)
        self._heap.set_score(key, self._score(history))
        self._trim_ghosts()

    def on_access(self, key: CacheKey, now: float) -> None:
        self._require_resident(key)
        history = self._history[key]
        history.append(now)
        self._heap.set_score(key, self._score(history))

    def remove(self, key: CacheKey) -> None:
        self._require_resident(key)
        self._resident.discard(key)
        self._heap.discard(key)

    def evict(self, now: float) -> CacheKey:
        self._require_nonempty()
        key = self._heap.pop_min()
        self._resident.discard(key)
        return key

    def _trim_ghosts(self) -> None:
        if len(self._history) <= self.MAX_GHOSTS:
            return
        ghosts = [
            (history[-1], key)
            for key, history in (
                self._history.items()  # repro: noqa REP003 -- sorted below
            )
            if key not in self._resident
        ]
        # The explicit sort below canonicalises the order, so the build
        # order of the comprehension above is immaterial.
        ghosts.sort()
        for __, key in ghosts[: len(ghosts) // 2]:
            del self._history[key]


register_policy("lruk")(LRUKPolicy)
