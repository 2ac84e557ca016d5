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
import typing as t
from collections import deque

from repro.core.granularity import CacheKey
from repro.core.replacement.base import ScoredPolicy, register_policy


class LRUKPolicy(ScoredPolicy):
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
        super().__init__()
        self.k = k
        self.name = f"lru-{k}"
        # A record is [stamp, key, access history]; a key that leaves
        # keeps its history here.
        self._ghosts: dict[CacheKey, deque[float]] = {}

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
        history = self._ghosts.pop(key, None)
        if history is None:
            history = deque([now], maxlen=self.k)
        else:
            history.append(now)
        # Keyed by the admitted key object, so a returning ghost does
        # not keep its evicted (equal) key alive beside the cache's.
        record = self._records[key] = [None, key, history]
        self._push(record, self._score(history))
        self._trim_ghosts()

    def on_access(self, key: CacheKey, now: float) -> None:
        self._require_resident(key)
        record = self._records[key]
        history = record[2]
        history.append(now)
        self._push(record, self._score(history))

    def _forget(self, record: list[t.Any]) -> None:
        self._ghosts[record[1]] = record[2]
        super()._forget(record)

    def _trim_ghosts(self) -> None:
        if len(self._records) + len(self._ghosts) <= self.MAX_GHOSTS:
            return
        ghosts = [
            (history[-1], key)
            for key, history in (
                self._ghosts.items()  # repro: noqa REP003 -- sorted below
            )
        ]
        # The explicit sort below canonicalises the order, so the build
        # order of the comprehension above is immaterial.
        ghosts.sort()
        for __, key in ghosts[: len(ghosts) // 2]:
            del self._ghosts[key]


register_policy("lruk")(LRUKPolicy)
