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

import abc
import itertools
import typing as t
from collections import OrderedDict, deque
from heapq import heapify, heappop, heappush

from repro.core.granularity import CacheKey
from repro.core.replacement.base import (
    COMPACTION_SLACK,
    LazyScoreHeap,
    ReplacementPolicy,
    register_policy,
)


#: Weight applied to a young key's elapsed time when competing with
#: established duration estimates (see module docstring).
DEFAULT_YOUNG_PENALTY = 3.0


class DurationScoredPolicy(ReplacementPolicy):
    """Evict the key with the largest estimated mean inter-access gap."""

    def __init__(self, young_penalty: float = DEFAULT_YOUNG_PENALTY) -> None:
        if young_penalty <= 0:
            raise ValueError(
                f"young penalty must be positive, got {young_penalty!r}"
            )
        self.young_penalty = float(young_penalty)
        self._last_access: dict[CacheKey, float] = {}
        #: Single-access keys, oldest first (insertion order == access order).
        self._young: OrderedDict[CacheKey, float] = OrderedDict()
        #: Multi-access keys; stores *negated* estimates so the heap's
        #: minimum is the largest mean duration.
        self._scored = LazyScoreHeap()

    # -- subclass hooks -------------------------------------------------
    @abc.abstractmethod
    def _init_state(self, key: CacheKey, now: float) -> None:
        """Create per-key estimator state on admission."""

    @abc.abstractmethod
    def _fold(self, key: CacheKey, now: float, duration: float) -> float:
        """Fold one new duration into the estimate; return the new score."""

    @abc.abstractmethod
    def _drop_state(self, key: CacheKey) -> None:
        """Discard per-key estimator state."""

    # -- ReplacementPolicy interface ------------------------------------
    def __contains__(self, key: CacheKey) -> bool:
        return key in self._last_access

    def __len__(self) -> int:
        return len(self._last_access)

    def lazy_stores(self) -> dict[str, tuple[int, int]]:
        return {"scored": self._scored.sizes()}

    def on_admit(self, key: CacheKey, now: float) -> None:
        self._require_absent(key)
        self._last_access[key] = now
        self._young[key] = now
        self._init_state(key, now)

    def on_access(self, key: CacheKey, now: float) -> None:
        self._require_resident(key)
        duration = now - self._last_access[key]
        self._last_access[key] = now
        score = self._fold(key, now, duration)
        self._young.pop(key, None)
        self._scored.set_score(key, -score)

    def remove(self, key: CacheKey) -> None:
        self._require_resident(key)
        del self._last_access[key]
        self._young.pop(key, None)
        self._scored.discard(key)
        self._drop_state(key)

    def evict(self, now: float) -> CacheKey:
        self._require_nonempty()
        young_key: CacheKey | None = None
        young_score = -1.0
        if self._young:
            young_key = next(iter(self._young))
            young_score = self.young_penalty * (
                now - self._young[young_key]
            )
        if len(self._scored):
            negated, scored_key = self._scored.peek_min()
            if young_key is None or -negated > young_score:
                key = self._scored.pop_min()
                del self._last_access[key]
                self._drop_state(key)
                self.last_eviction_score = -negated
                return key
        assert young_key is not None
        del self._young[young_key]
        del self._last_access[young_key]
        self._drop_state(young_key)
        self.last_eviction_score = young_score
        return young_key

    def estimate(self, key: CacheKey, now: float) -> float:
        """Current score of ``key`` (penalised elapsed for young keys)."""
        self._require_resident(key)
        if key in self._young:
            return self.young_penalty * (now - self._young[key])
        return -self._scored.score_of(key)


class MeanPolicy(DurationScoredPolicy):
    """Running mean over the key's entire access history.

    Adapts poorly to changing access patterns — every duration since the
    beginning of time keeps full weight — which is exactly the weakness
    the paper demonstrates on the CSH workload.
    """

    name = "mean"

    def __init__(
        self, young_penalty: float = DEFAULT_YOUNG_PENALTY
    ) -> None:
        super().__init__(young_penalty)
        self._state: dict[CacheKey, tuple[int, float]] = {}

    def _init_state(self, key: CacheKey, now: float) -> None:
        self._state[key] = (0, 0.0)

    def _fold(self, key: CacheKey, now: float, duration: float) -> float:
        count, mean = self._state[key]
        mean = (count * mean + duration) / (count + 1)
        self._state[key] = (count + 1, mean)
        return mean

    def _drop_state(self, key: CacheKey) -> None:
        del self._state[key]


class WindowPolicy(DurationScoredPolicy):
    """Mean inter-arrival duration over the W most recent accesses."""

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
        self._times: dict[CacheKey, deque[float]] = {}

    def _init_state(self, key: CacheKey, now: float) -> None:
        self._times[key] = deque([now], maxlen=self.window)

    def _fold(self, key: CacheKey, now: float, duration: float) -> float:
        times = self._times[key]
        times.append(now)
        return (times[-1] - times[0]) / (len(times) - 1)

    def _drop_state(self, key: CacheKey) -> None:
        del self._times[key]


#: A store entry: (score, stamp when pushed, the key's record).
_Entry = tuple[float, int, list[t.Any]]


def _live(store: t.Iterable[_Entry]) -> list[_Entry]:
    """The entries of ``store`` whose stamp is still their record's."""
    return [entry for entry in store if entry[2][2] == entry[1]]


def _rebuilt(heap: list[_Entry]) -> list[_Entry]:
    live = _live(heap)
    heapify(live)
    return live


def _settled(heap: list[_Entry]) -> list[_Entry]:
    """Pop dead entries off the top of ``heap``; return it."""
    while heap and heap[0][2][2] != heap[0][1]:
        heappop(heap)
    return heap


class EWMAPolicy(ReplacementPolicy):
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
      key ranks highest (a FIFO in admission order suffices);
    * **frozen** — idle for less than ``drift_tolerance * M``; rank = M,
      static until the key reaches its *knee* (last access +
      drift_tolerance * M), tracked in a knee-time heap.  The tolerance
      (default 2) keeps ordinary heavy-tailed gaps from looking like
      cooling: an exponential gap exceeds its mean 37% of the time but
      exceeds twice its mean only 13% of the time;
    * **drifting** — overdue; rank = ``alpha*M + (1-alpha) * elapsed /
      drift_tolerance``, i.e. ``(1-alpha)/tolerance * now + S`` with
      static ``S``, so a plain heap over S stays ordered as time
      advances (the rank is continuous at the knee).

    Eviction migrates keys whose knee has passed into the drifting heap,
    then takes the maximum rank across the three regimes.

    **One record per key; entries live by stamp.**  A resident key has
    one record ``[M, last access, stamp, key, drifting]`` (M is ``None``
    while the key is young).  The young FIFO and the frozen, knee and
    drift heaps hold ``(score, stamp, record)`` entries (a young entry's
    score is its admission time).  An entry is live while its stamp is
    the record's: an access or a migration gives the record a fresh
    stamp and a leaving key none, which kills every older entry of the
    key where it lies.  Dead entries are dropped when they reach the
    front, and a store is rebuilt from its live entries once it holds
    more than ``2 * live + COMPACTION_SLACK`` of them (``live`` being
    its regime's population), so no store grows with the number of
    accesses.  Stamps come from one counter, so within a store they
    order entries by push time, and heap ties break on (score, push
    order) exactly as a :class:`LazyScoreHeap`'s sequence breaks them.
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
        if young_penalty <= 0:
            raise ValueError(
                f"young penalty must be positive, got {young_penalty!r}"
            )
        self.young_penalty = float(young_penalty)
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
        #: key -> [M or None, last access, stamp or None once gone, key,
        #: drifting].
        self._records: dict[CacheKey, list[t.Any]] = {}
        self._stamps = itertools.count(1)
        self._young: deque[_Entry] = deque()  # admission order
        self._frozen: list[_Entry] = []  # score = -M (max M on top)
        self._knees: list[_Entry] = []  # score = knee time (min on top)
        self._drift: list[_Entry] = []  # score = -S (max S on top)
        #: Each regime's population: the live entries of its stores.
        self._young_live = 0
        self._frozen_live = 0
        self._drift_live = 0

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def _rank(self, record: list[t.Any], now: float) -> float:
        mean, last = record[0], record[1]
        elapsed = now - last
        if mean is None:
            return self.young_penalty * elapsed
        overdue = max(elapsed / self.drift_tolerance, mean)
        return self.alpha * mean + (1.0 - self.alpha) * overdue

    def _drift_rank_static(self, mean: float, last: float) -> float:
        return (
            self.alpha * mean
            - (1.0 - self.alpha) * last / self.drift_tolerance
        )

    def on_admit(self, key: CacheKey, now: float) -> None:
        records = self._records
        if key in records:
            self._require_absent(key)  # raises
        stamp = next(self._stamps)
        record = [None, now, stamp, key, False]
        records[key] = record
        # One more entry and one more live key: the bound still holds.
        self._young.append((now, stamp, record))
        self._young_live += 1

    def on_access(self, key: CacheKey, now: float) -> None:
        record = self._records.get(key)
        if record is None:
            self._require_resident(key)  # raises
        mean = record[0]
        duration = now - record[1]
        # The key's old entries die with the new stamp; it only leaves
        # its regime's population, unless it was frozen already.
        if mean is None:
            mean = duration
            self._young_live -= 1
            self._frozen_live += 1
            self._bound_young()
        else:
            mean = (1.0 - self.alpha) * duration + self.alpha * mean
            if record[4]:
                record[4] = False
                self._drift_live -= 1
                self._frozen_live += 1
                self._bound_drift()
        stamp = next(self._stamps)
        record[0] = mean
        record[1] = now
        record[2] = stamp
        heappush(self._frozen, (-mean, stamp, record))
        heappush(
            self._knees, (now + self.drift_tolerance * mean, stamp, record)
        )
        self._bound_frozen()

    def remove(self, key: CacheKey) -> None:
        record = self._records.get(key)
        if record is None:
            self._require_resident(key)  # raises
        self._forget(record)

    def _forget(self, record: list[t.Any]) -> None:
        """Drop a leaving key's record; its entries die with the stamp."""
        del self._records[record[3]]
        record[2] = None
        if record[0] is None:
            self._young_live -= 1
            self._bound_young()
        elif record[4]:
            self._drift_live -= 1
            self._bound_drift()
        else:
            self._frozen_live -= 1
            self._bound_frozen()

    # Each store is rebuilt from its live entries once it holds more
    # than ``2 * live + COMPACTION_SLACK``; a regime's stores are
    # checked whenever they grow without it or it shrinks.  A rebuild
    # keeps the FIFO's order and cannot change a heap's top, since
    # (score, stamp) orders a heap's entries totally.
    def _bound_young(self) -> None:
        if len(self._young) > 2 * self._young_live + COMPACTION_SLACK:
            self._young = deque(_live(self._young))

    def _bound_frozen(self) -> None:
        bound = 2 * self._frozen_live + COMPACTION_SLACK
        if len(self._frozen) > bound:
            self._frozen = _rebuilt(self._frozen)
        if len(self._knees) > bound:
            self._knees = _rebuilt(self._knees)

    def _bound_drift(self) -> None:
        if len(self._drift) > 2 * self._drift_live + COMPACTION_SLACK:
            self._drift = _rebuilt(self._drift)

    def _migrate_overdue(self, now: float) -> None:
        """Move keys whose knee has passed from frozen to drifting."""
        knees = self._knees
        migrated = False
        while knees:
            knee, stamp, record = knees[0]
            if record[2] == stamp and knee > now:
                break
            heappop(knees)
            if record[2] != stamp:
                continue
            stamp = next(self._stamps)
            record[2] = stamp
            record[4] = True
            self._frozen_live -= 1
            self._drift_live += 1
            heappush(
                self._drift,
                (
                    -self._drift_rank_static(record[0], record[1]),
                    stamp,
                    record,
                ),
            )
            migrated = True
        if migrated:
            self._bound_frozen()

    def evict(self, now: float) -> CacheKey:
        """Remove and return the key with the maximal anticipated rank."""
        if not self._records:
            self._require_nonempty()  # raises
        self._migrate_overdue(now)
        young = self._young
        while young and young[0][2][2] != young[0][1]:
            young.popleft()
        frozen = _settled(self._frozen)
        drift = _settled(self._drift)
        best: list[t.Any] | None = None
        best_rank = -1.0
        if young:
            best = young[0][2]
            best_rank = self.young_penalty * (now - best[1])
        if frozen:
            negated, __, record = frozen[0]
            if -negated > best_rank:
                best, best_rank = record, -negated
        if drift:
            negated, __, record = drift[0]
            rank = (
                (1.0 - self.alpha) * now / self.drift_tolerance + -negated
            )
            if rank > best_rank:
                best, best_rank = record, rank
        assert best is not None
        self._forget(best)
        self.last_eviction_score = best_rank
        return best[3]

    def mean_duration(self, key: CacheKey) -> float:
        """The raw EWMA estimate M (0.0 before the first gap closes)."""
        self._require_resident(key)
        mean = self._records[key][0]
        return mean if mean is not None else 0.0

    def estimate(self, key: CacheKey, now: float) -> float:
        """Anticipated estimate used for eviction ranking."""
        self._require_resident(key)
        return self._rank(self._records[key], now)

    def lazy_stores(self) -> dict[str, tuple[int, int]]:
        return {
            "young": (len(self._young), self._young_live),
            "frozen": (len(self._frozen), self._frozen_live),
            "knees": (len(self._knees), self._frozen_live),
            "drift": (len(self._drift), self._drift_live),
        }

    def regime_entries(self, key: CacheKey) -> tuple[int, ...]:
        """Live entries of ``key`` in the young FIFO and the frozen,
        knee and drift heaps.

        A resident key has ``(1, 0, 0, 0)`` while young, ``(0, 1, 1,
        0)`` while frozen and ``(0, 0, 0, 1)`` while drifting; anything
        else would rank it twice or never.  Scans every store: for
        tests, not for the access path.
        """
        return tuple(
            sum(1 for entry in _live(store) if entry[2][3] == key)
            for store in (self._young, self._frozen, self._knees, self._drift)
        )


register_policy("mean")(MeanPolicy)
register_policy("window")(WindowPolicy)
register_policy("ewma")(EWMAPolicy)
