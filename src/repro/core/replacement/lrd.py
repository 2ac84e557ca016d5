"""Least-reference-density replacement with periodic aging.

Follows the paper's configuration of the LRD scheme from Effelsberg and
Haerder's buffer-management study: each key carries a reference count
that is halved every ``halving_interval`` seconds (1000 s in the paper's
Experiment #2); the victim is the key with the lowest decayed count.

Implementation note: halving every interval multiplies *all* counts by
the same factor, so relative order between accesses is static.  We store
the normalised score ``log2(count) + epoch`` (epoch = how many halvings
have elapsed when the count was last updated), which is monotone in the
decayed count and immune to float underflow over long horizons.
"""

from __future__ import annotations

import math
import typing as t

from repro.core.granularity import CacheKey
from repro.core.replacement.base import ScoredPolicy, register_policy

#: The paper divides reference counts by two every 1000 seconds.
DEFAULT_HALVING_INTERVAL = 1000.0


class LRDPolicy(ScoredPolicy):
    """Evict the key with the smallest aged reference count."""

    name = "lrd"

    def __init__(self, halving_interval: float = DEFAULT_HALVING_INTERVAL) -> None:
        if halving_interval <= 0:
            raise ValueError(
                f"halving interval must be positive, got {halving_interval!r}"
            )
        super().__init__()
        self.halving_interval = float(halving_interval)
        self.name = (
            "lrd"
            if halving_interval == DEFAULT_HALVING_INTERVAL
            else f"lrd-{halving_interval:g}"
        )
        # A record is [stamp, key, decayed count at epoch, epoch index].

    def _epoch(self, now: float) -> int:
        return int(now // self.halving_interval)

    def _bump(self, record: list[t.Any], now: float) -> None:
        epoch = self._epoch(now)
        count = record[2] * 0.5 ** (epoch - record[3]) + 1.0
        record[2] = count
        record[3] = epoch
        # Normalised score: log2 of the count the key *would* have if no
        # halvings had ever happened; order-equivalent to decayed counts.
        self._push(record, math.log2(count) + epoch)

    def reference_density(self, key: CacheKey, now: float) -> float:
        """Decayed reference count of ``key`` as of ``now`` (for tests)."""
        __, __, count, last_epoch = self._records[key]
        return count * 0.5 ** (self._epoch(now) - last_epoch)

    def on_admit(self, key: CacheKey, now: float) -> None:
        self._require_absent(key)
        record = [None, key, 0.0, self._epoch(now)]
        self._records[key] = record
        self._bump(record, now)

    def on_access(self, key: CacheKey, now: float) -> None:
        self._require_resident(key)
        self._bump(self._records[key], now)


register_policy("lrd")(LRDPolicy)
