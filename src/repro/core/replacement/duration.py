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
from collections import OrderedDict, deque

from repro.core.granularity import CacheKey
from repro.core.replacement.base import (
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
      key ranks highest (an ordered dict in access order suffices);
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
        #: key -> (M or None before the first gap closes, last access).
        self._state: dict[CacheKey, tuple[float | None, float]] = {}
        self._young: OrderedDict[CacheKey, float] = OrderedDict()
        self._frozen = LazyScoreHeap()  # score = -M (max M on top)
        self._knees = LazyScoreHeap()  # score = knee time (min on top)
        self._drift = LazyScoreHeap()  # score = -S (max S on top)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._state

    def __len__(self) -> int:
        return len(self._state)

    def _rank(self, key: CacheKey, now: float) -> float:
        mean, last = self._state[key]
        elapsed = now - last
        if mean is None:
            return self.young_penalty * elapsed
        overdue = max(elapsed / self.drift_tolerance, mean)
        return self.alpha * mean + (1.0 - self.alpha) * overdue

    def _detach(self, key: CacheKey) -> None:
        """Remove ``key`` from whichever regime structure holds it."""
        if self._young.pop(key, None) is None:
            self._frozen.discard(key)
            self._knees.discard(key)
            self._drift.discard(key)

    def _drift_rank_static(self, mean: float, last: float) -> float:
        return (
            self.alpha * mean
            - (1.0 - self.alpha) * last / self.drift_tolerance
        )

    def on_admit(self, key: CacheKey, now: float) -> None:
        state = self._state
        if key in state:
            self._require_absent(key)  # raises
        state[key] = (None, now)
        self._young[key] = now

    def on_access(self, key: CacheKey, now: float) -> None:
        state = self._state.get(key)
        if state is None:
            self._require_resident(key)  # raises
        mean, last = state
        duration = now - last
        # The key leaves only the regime it is in: young while it has
        # no closed gap (mean ``None``), one of the heaps otherwise.
        if mean is None:
            mean = duration
            del self._young[key]
        else:
            mean = (1.0 - self.alpha) * duration + self.alpha * mean
            self._frozen.discard(key)
            self._knees.discard(key)
            self._drift.discard(key)
        self._state[key] = (mean, now)
        self._frozen.set_score(key, -mean)
        self._knees.set_score(key, now + self.drift_tolerance * mean)

    def remove(self, key: CacheKey) -> None:
        self._require_resident(key)
        self._detach(key)
        del self._state[key]

    def _migrate_overdue(self, now: float) -> None:
        """Move keys whose knee has passed from frozen to drifting."""
        while True:
            top = self._knees.top()
            if top is None or top[0] > now:
                return
            key = top[1]
            self._knees.discard(key)
            self._frozen.discard(key)
            mean, last = self._state[key]
            assert mean is not None
            self._drift.set_score(
                key, -self._drift_rank_static(mean, last)
            )

    def evict(self, now: float) -> CacheKey:
        """Remove and return the key with the maximal anticipated rank."""
        self._require_nonempty()
        self._migrate_overdue(now)
        best_key: CacheKey | None = None
        best_rank = -1.0
        if self._young:
            key = next(iter(self._young))
            best_key = key
            best_rank = self.young_penalty * (now - self._young[key])
        top = self._frozen.top()
        if top is not None:
            negated, key = top
            if -negated > best_rank:
                best_key, best_rank = key, -negated
        top = self._drift.top()
        if top is not None:
            negated, key = top
            rank = (
                (1.0 - self.alpha) * now / self.drift_tolerance + -negated
            )
            if rank > best_rank:
                best_key, best_rank = key, rank
        assert best_key is not None
        self._detach(best_key)
        del self._state[best_key]
        self.last_eviction_score = best_rank
        return best_key

    def mean_duration(self, key: CacheKey) -> float:
        """The raw EWMA estimate M (0.0 before the first gap closes)."""
        self._require_resident(key)
        mean, __ = self._state[key]
        return mean if mean is not None else 0.0

    def estimate(self, key: CacheKey, now: float) -> float:
        """Anticipated estimate used for eviction ranking."""
        self._require_resident(key)
        return self._rank(key, now)


register_policy("mean")(MeanPolicy)
register_policy("window")(WindowPolicy)
register_policy("ewma")(EWMAPolicy)
