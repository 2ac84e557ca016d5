"""Shared machinery for the paper's duration-scored schemes.

Mean, Window and EWMA (Section 3.3) all estimate each key's *mean access
inter-arrival duration* and evict the key with the largest estimate (the
least frequently accessed one).  They differ only in how the estimate
folds in new durations.

Keys seen only once have no duration yet.  Such *young* keys get a
provisional score of ``young_penalty * elapsed`` (time since their single
access): freshly inserted keys look hot and are protected, but one-hit
wonders age out.  The penalty corrects for the fact that a young key's
elapsed gap systematically *under*-estimates its true inter-access
duration (its next access has not happened yet) — without it, a steady
stream of cold insertions squats in the cache while established hot keys
with honest multi-thousand-second estimates get evicted.  DESIGN.md
Section 6 discusses this choice; the ablation benchmarks sweep the
penalty.
"""

from __future__ import annotations

import typing as t
from collections import deque
from heapq import heappop, heappush

from repro.core.granularity import CacheKey
from repro.core.replacement.base import (
    COMPACTION_SLACK,
    Entry,
    ScoredPolicy,
    live_entries,
    rebuilt,
    register_policy,
    settled,
)


#: Weight applied to a young key's elapsed time when competing with
#: established duration estimates (see module docstring).
DEFAULT_YOUNG_PENALTY = 3.0


class DurationScoredPolicy(ScoredPolicy):
    """Evict the key with the largest estimated mean inter-access gap.

    A resident key's record is ``[stamp, key, estimate M, last access,
    field]``: M is ``None`` while the key is young, and the field is the
    scheme's own (``None`` at admission).  Young keys wait in a FIFO of
    ``(admission time, stamp, record)`` entries, so the oldest one ranks
    highest; keys with a closed gap sit on the scored heap under ``-M``,
    so its top has the largest estimate.  Both stores keep their entries
    live by stamp (see :class:`ScoredPolicy`), each rebuilt past twice
    its own regime's population plus ``COMPACTION_SLACK``.  A victim is
    the larger of the two tops; a young key wins a tie.
    """

    def __init__(self, young_penalty: float = DEFAULT_YOUNG_PENALTY) -> None:
        if young_penalty <= 0:
            raise ValueError(
                f"young penalty must be positive, got {young_penalty!r}"
            )
        super().__init__()
        self.young_penalty = float(young_penalty)
        self._young: deque[Entry] = deque()  # admission order
        #: Each regime's population: the live entries of its stores.
        self._young_live = 0
        self._scored_live = 0

    def _fold(self, record: list[t.Any], now: float) -> float:
        """Fold the gap closing at ``now`` into the estimate; return it.

        Mean and Window fold here; EWMA folds in its own ``on_access``.
        """
        raise NotImplementedError

    def lazy_stores(self) -> dict[str, tuple[int, int]]:
        return {
            "young": (len(self._young), self._young_live),
            "scored": (len(self._heap), self._scored_live),
        }

    def on_admit(self, key: CacheKey, now: float) -> None:
        records = self._records
        if key in records:
            self._require_absent(key)  # raises
        stamp = next(self._stamps)
        record = [stamp, key, None, now, None]
        records[key] = record
        # One more entry and one more live key: the bound still holds.
        self._young.append((now, stamp, record))
        self._young_live += 1

    def on_access(self, key: CacheKey, now: float) -> None:
        record = self._records.get(key)
        if record is None:
            self._require_resident(key)  # raises
        if record[2] is None:
            self._young_live -= 1
            self._scored_live += 1
            self._bound_young()
        mean = record[2] = self._fold(record, now)
        record[3] = now
        self._push(record, -mean)

    def _forget(self, record: list[t.Any]) -> None:
        del self._records[record[1]]
        record[0] = None
        if record[2] is None:
            self._young_live -= 1
            self._bound_young()
        else:
            self._scored_live -= 1
            self._bound_heap()

    # Each store is rebuilt from its live entries once it holds more
    # than ``2 * live + COMPACTION_SLACK``, ``live`` being its regime's
    # population; a regime's stores are checked whenever they grow
    # without it or it shrinks.  A rebuild keeps the FIFO's order.
    def _bound_young(self) -> None:
        if len(self._young) > 2 * self._young_live + COMPACTION_SLACK:
            self._young = deque(live_entries(self._young))

    def _bound_heap(self) -> None:
        if len(self._heap) > 2 * self._scored_live + COMPACTION_SLACK:
            self._heap = rebuilt(self._heap)

    def _best(self, now: float) -> tuple[list[t.Any] | None, float]:
        """The record with the largest rank at ``now``, and that rank."""
        young = self._young
        while young and young[0][2][0] != young[0][1]:
            young.popleft()
        scored = settled(self._heap)
        best: list[t.Any] | None = None
        best_rank = -1.0
        if young:
            best = young[0][2]
            best_rank = self.young_penalty * (now - best[3])
        if scored:
            negated, __, record = scored[0]
            if -negated > best_rank:
                best, best_rank = record, -negated
        return best, best_rank

    def evict(self, now: float) -> CacheKey:
        if not self._records:
            self._require_nonempty()  # raises
        best, best_rank = self._best(now)
        assert best is not None
        self._forget(best)
        self.last_eviction_score = best_rank
        return best[1]

    def estimate(self, key: CacheKey, now: float) -> float:
        """Current score of ``key`` (penalised elapsed for young keys)."""
        self._require_resident(key)
        __, __, mean, last, __ = self._records[key]
        if mean is None:
            return self.young_penalty * (now - last)
        return mean


class MeanPolicy(DurationScoredPolicy):
    """Running mean over the key's entire access history.

    Adapts poorly to changing access patterns — every duration since the
    beginning of time keeps full weight — which is exactly the weakness
    the paper demonstrates on the CSH workload.  The record's field is
    the number of gaps folded in.
    """

    name = "mean"

    def _fold(self, record: list[t.Any], now: float) -> float:
        duration = now - record[3]
        count = record[4]
        if count is None:  # the first gap
            record[4] = 1
            return duration
        record[4] = count + 1
        return (count * record[2] + duration) / (count + 1)


class WindowPolicy(DurationScoredPolicy):
    """Mean inter-arrival duration over the W most recent accesses.

    The record's field holds those access times once a gap has closed.
    """

    def __init__(
        self, window: int = 10,
        young_penalty: float = DEFAULT_YOUNG_PENALTY,
    ) -> None:
        window = int(window)
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window!r}")
        super().__init__(young_penalty)
        self.window = window
        self.name = f"window-{window}"

    def _fold(self, record: list[t.Any], now: float) -> float:
        times = record[4]
        if times is None:  # the first gap opened at admission
            times = record[4] = deque([record[3]], maxlen=self.window)
        times.append(now)
        return (times[-1] - times[0]) / (len(times) - 1)


class EWMAPolicy(DurationScoredPolicy):
    """Exponentially weighted moving average of inter-arrival durations.

    The recurrence ``M = (1 - alpha) * d + alpha * M_prev`` gives relative
    weights 1 : alpha : alpha^2 : ... to the current and past durations,
    matching the paper's description; alpha = 0.5 is the configuration
    the paper evaluates as EWMA-0.5.

    **Eviction ranks keys by the anticipated estimate.**  A key idle for
    less than its estimated gap M is behaving exactly as predicted, so
    its rank stays frozen at M; once the open gap exceeds M, the excess
    is evidence the key has cooled and the rank drifts upward as if the
    gap ended now::

        rank = alpha * M + (1 - alpha) * max(now - last_access, M)

    Keys with no closed gap yet rank by their open gap times the young
    penalty (the open gap under-estimates the true duration; see the
    module docstring), so fresh insertions are protected and one-hit
    wonders age out.  This anticipation is what lets EWMA
    shed a stale hot set without waiting to re-touch it — the adaptivity
    the paper credits the scheme with — while between accesses a hot
    key's rank is as stable as the Mean scheme's.

    Every key therefore lives in one of three regimes, each with an
    exact O(log n) ordering:

    * **young** — no closed gap; rank = open gap, so the oldest young
      key ranks highest (the shared young FIFO);
    * **frozen** — idle for less than ``drift_tolerance * M``; rank = M,
      static until the key reaches its *knee* (last access +
      drift_tolerance * M), tracked in a knee-time heap.  Frozen keys
      sit on the shared scored heap.  The tolerance
      (default 2) keeps ordinary heavy-tailed gaps from looking like
      cooling: an exponential gap exceeds its mean 37% of the time but
      exceeds twice its mean only 13% of the time;
    * **drifting** — overdue; rank = ``alpha*M + (1-alpha) * elapsed /
      drift_tolerance``, i.e. ``(1-alpha)/tolerance * now + S`` with
      static ``S``, so a plain heap over S stays ordered as time
      advances (the rank is continuous at the knee).

    Eviction migrates keys whose knee has passed into the drifting heap,
    then takes the maximum rank across the three regimes.  The record's
    field says whether the key is drifting; a migration restamps the
    record, which kills its frozen and knee entries.
    """

    #: How many estimated gaps a key may sit idle before it starts
    #: drifting toward eviction.
    DRIFT_TOLERANCE = 2.0

    def __init__(
        self,
        alpha: float = 0.5,
        drift_tolerance: float | None = None,
        young_penalty: float = DEFAULT_YOUNG_PENALTY,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(
                f"alpha must lie strictly between 0 and 1, got {alpha!r}"
            )
        super().__init__(young_penalty)
        tolerance = (
            self.DRIFT_TOLERANCE if drift_tolerance is None
            else float(drift_tolerance)
        )
        if tolerance < 1.0:
            raise ValueError(
                f"drift tolerance must be >= 1, got {tolerance!r}"
            )
        self.drift_tolerance = tolerance
        self.alpha = float(alpha)
        self.name = f"ewma-{alpha:g}"
        self._knees: list[Entry] = []  # score = knee time (min on top)
        self._drift: list[Entry] = []  # score = -S (max S on top)
        self._drift_live = 0

    def _drift_rank_static(self, mean: float, last: float) -> float:
        return (
            self.alpha * mean
            - (1.0 - self.alpha) * last / self.drift_tolerance
        )

    def on_access(self, key: CacheKey, now: float) -> None:
        record = self._records.get(key)
        if record is None:
            self._require_resident(key)  # raises
        mean = record[2]
        duration = now - record[3]
        # The key's old entries die with the new stamp; it only leaves
        # its regime's population, unless it was frozen already.
        if mean is None:
            mean = duration
            self._young_live -= 1
            self._scored_live += 1
            self._bound_young()
        else:
            mean = (1.0 - self.alpha) * duration + self.alpha * mean
            if record[4]:
                record[4] = False
                self._drift_live -= 1
                self._scored_live += 1
                self._bound_drift()
        stamp = next(self._stamps)
        record[0] = stamp
        record[2] = mean
        record[3] = now
        heappush(self._heap, (-mean, stamp, record))
        heappush(
            self._knees, (now + self.drift_tolerance * mean, stamp, record)
        )
        self._bound_heap()

    def _forget(self, record: list[t.Any]) -> None:
        if not record[4]:
            super()._forget(record)
            return
        del self._records[record[1]]
        record[0] = None
        self._drift_live -= 1
        self._bound_drift()

    def _bound_heap(self) -> None:
        bound = 2 * self._scored_live + COMPACTION_SLACK
        if len(self._heap) > bound:
            self._heap = rebuilt(self._heap)
        if len(self._knees) > bound:
            self._knees = rebuilt(self._knees)

    def _bound_drift(self) -> None:
        if len(self._drift) > 2 * self._drift_live + COMPACTION_SLACK:
            self._drift = rebuilt(self._drift)

    def _migrate_overdue(self, now: float) -> None:
        """Move keys whose knee has passed from frozen to drifting."""
        knees = self._knees
        migrated = False
        while knees:
            knee, stamp, record = knees[0]
            if record[0] == stamp and knee > now:
                break
            heappop(knees)
            if record[0] != stamp:
                continue
            stamp = next(self._stamps)
            record[0] = stamp
            record[4] = True
            self._scored_live -= 1
            self._drift_live += 1
            heappush(
                self._drift,
                (
                    -self._drift_rank_static(record[2], record[3]),
                    stamp,
                    record,
                ),
            )
            migrated = True
        if migrated:
            self._bound_heap()

    def _best(self, now: float) -> tuple[list[t.Any] | None, float]:
        self._migrate_overdue(now)
        best, best_rank = super()._best(now)
        drift = settled(self._drift)
        if drift:
            negated, __, record = drift[0]
            rank = (
                (1.0 - self.alpha) * now / self.drift_tolerance + -negated
            )
            if rank > best_rank:
                best, best_rank = record, rank
        return best, best_rank

    def mean_duration(self, key: CacheKey) -> float:
        """The raw EWMA estimate M (0.0 before the first gap closes)."""
        self._require_resident(key)
        mean = self._records[key][2]
        return mean if mean is not None else 0.0

    def estimate(self, key: CacheKey, now: float) -> float:
        """Anticipated estimate used for eviction ranking."""
        young_or_mean = super().estimate(key, now)
        __, __, mean, last, __ = self._records[key]
        if mean is None:
            return young_or_mean
        overdue = max((now - last) / self.drift_tolerance, mean)
        return self.alpha * mean + (1.0 - self.alpha) * overdue

    def lazy_stores(self) -> dict[str, tuple[int, int]]:
        return {
            **super().lazy_stores(),
            "knees": (len(self._knees), self._scored_live),
            "drift": (len(self._drift), self._drift_live),
        }

    def regime_entries(self, key: CacheKey) -> tuple[int, ...]:
        """Live entries of ``key`` in the young FIFO and the scored
        (frozen), knee and drift heaps.

        A resident key has ``(1, 0, 0, 0)`` while young, ``(0, 1, 1,
        0)`` while frozen and ``(0, 0, 0, 1)`` while drifting; anything
        else would rank it twice or never.  Scans every store: for
        tests, not for the access path.
        """
        return tuple(
            sum(1 for entry in live_entries(store) if entry[2][1] == key)
            for store in (self._young, self._heap, self._knees, self._drift)
        )


register_policy("mean")(MeanPolicy)
register_policy("window")(WindowPolicy)
register_policy("ewma")(EWMAPolicy)
