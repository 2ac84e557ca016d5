"""LRU-k, LRFU, LRD, Mean and Window against full-scan twins.

Each twin keeps every resident key's own access times and folds the
score the policy documents from them, the same arithmetic one access
at a time:

* LRU-k: (k-th most recent access, or -inf with fewer than k; the most
  recent access), retained for evicted keys as ghosts until more than
  ``MAX_GHOSTS`` histories force the older half of the ghosts, by
  (last access, key), out;
* LRFU: the normalised CRF log-score ``log2(C) + lambda * t_last``;
* LRD: ``log2(count) + epoch`` of the count halved every interval;
* Mean and Window: the young penalty times the open gap while a key has
  one access, else the mean of its gaps (all of them, or those of its
  last W accesses).

The victim is found by scanning every resident key for the minimum
score (the maximum rank for Mean and Window).  Ties go to the key
re-scored earliest; Mean and Window first prefer a young key to one
with a closed gap.  No heap, no stamps, no stale records: the policies'
lazily pruned heaps must pick the same victims, report the same
``last_eviction_score`` and answer the same per-key questions.

Hypothesis drives both like a cache of a few keys through admits,
accesses, removals and evictions at non-decreasing times, with many
steps of zero length so that equal scores are common.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core.replacement import (
    LRDPolicy,
    LRFUPolicy,
    LRUKPolicy,
    MeanPolicy,
    WindowPolicy,
)
from repro.oodb.objects import OID


class ScanTwin:
    """Resident keys with their access times; victims by full scan."""

    def __init__(self):
        self.times = {}  # resident key -> its access times
        self.scores = {}  # resident key -> (score, re-score order)
        self.order = 0
        self.last_eviction_score = None

    def __contains__(self, key):
        return key in self.scores

    def __len__(self):
        return len(self.scores)

    def rescore(self, key):
        self.order += 1
        self.scores[key] = (self.score(self.times[key]), self.order)

    def on_admit(self, key, now):
        assert key not in self
        self.times[key] = [now]
        self.rescore(key)

    def on_access(self, key, now):
        self.times[key].append(now)
        self.rescore(key)

    def remove(self, key):
        del self.times[key]
        del self.scores[key]

    def victim(self, now):
        # (score, order) is unique per key, so no two keys compare equal.
        return min(self.scores, key=self.scores.__getitem__)

    def evict(self, now):
        key = self.victim(now)
        self.last_eviction_score = self.eviction_score(key, now)
        self.remove(key)
        return key

    def eviction_score(self, key, now):
        return None


class TwinLRUK(ScanTwin):
    def __init__(self, k, max_ghosts):
        super().__init__()
        self.k = k
        self.max_ghosts = max_ghosts
        self.ghosts = {}  # evicted or removed key -> its access times

    def score(self, times):
        kth = times[-self.k] if len(times) >= self.k else -math.inf
        return (kth, times[-1])

    def on_admit(self, key, now):
        assert key not in self
        self.times[key] = self.ghosts.pop(key, []) + [now]
        self.rescore(key)
        if len(self.times) + len(self.ghosts) > self.max_ghosts:
            oldest = sorted((times[-1], ghost) for ghost, times in self.ghosts.items())
            for __, ghost in oldest[: len(oldest) // 2]:
                del self.ghosts[ghost]

    def remove(self, key):
        self.ghosts[key] = self.times[key]
        super().remove(key)


class TwinLRFU(ScanTwin):
    def __init__(self, decay):
        super().__init__()
        self.decay = decay

    def score(self, times):
        weight = self.decay * times[0]
        for now in times[1:]:
            x = weight - self.decay * now
            if x < -60.0:
                log_c = 0.0
            elif x > 60.0:
                log_c = x
            else:
                log_c = math.log2(1.0 + 2.0**x)
            weight = log_c + self.decay * now
        return weight

    def crf_log2(self, key, now):
        return self.scores[key][0] - self.decay * now

    def eviction_score(self, key, now):
        return self.crf_log2(key, now)


class TwinLRD(ScanTwin):
    def __init__(self, interval):
        super().__init__()
        self.interval = interval

    def counted(self, times):
        count, last_epoch = 0.0, None
        for now in times:
            epoch = int(now // self.interval)
            if last_epoch is not None:
                count *= 0.5 ** (epoch - last_epoch)
            count += 1.0
            last_epoch = epoch
        return count, last_epoch

    def score(self, times):
        count, epoch = self.counted(times)
        return math.log2(count) + epoch

    def reference_density(self, key, now):
        count, epoch = self.counted(self.times[key])
        return count * 0.5 ** (int(now // self.interval) - epoch)


class TwinDuration(ScanTwin):
    """Mean and Window: evict the largest rank."""

    young_penalty = 3.0

    def __init__(self, window=None):
        super().__init__()
        self.window = window

    def score(self, times):
        if len(times) == 1:
            return None  # young: ranked by its open gap at eviction
        if self.window is not None:
            recent = times[-self.window:]
            return (recent[-1] - recent[0]) / (len(recent) - 1)
        count, mean = 0, 0.0
        for earlier, later in zip(times, times[1:]):
            mean = (count * mean + (later - earlier)) / (count + 1)
            count += 1
        return mean

    def estimate(self, key, now):
        score = self.scores[key][0]
        if score is None:
            return self.young_penalty * (now - self.times[key][0])
        return score

    def victim(self, now):
        return max(
            self.scores,
            key=lambda key: (
                self.estimate(key, now),
                self.scores[key][0] is None,
                -self.scores[key][1],
            ),
        )

    def eviction_score(self, key, now):
        return self.estimate(key, now)


KEYS = [(OID("Root", n), None) for n in range(16)]

#: (operation, key pick, time step).  Zero steps put several accesses
#: at one instant, so equal scores and equal histories are common.
programs = st.lists(
    st.tuples(
        st.sampled_from(["admit", "admit", "access", "access", "remove", "evict"]),
        st.integers(0, len(KEYS) - 1),
        st.one_of(st.just(0.0), st.integers(0, 3), st.floats(0.0, 40.0)),
    ),
    min_size=20,
    max_size=160,
)


def assert_agree(policy, twin, now, check_key):
    assert len(policy) == len(twin)
    assert policy.last_eviction_score == twin.last_eviction_score
    for key in KEYS:
        assert (key in policy) == (key in twin), key
        if key in twin:
            check_key(policy, twin, key, now)


def evict_both(policy, twin, now):
    assert policy.evict(now) == twin.evict(now)


def drive(policy, twin, program, capacity, check_key=lambda *args: None):
    """Run ``program`` like a storage cache of ``capacity`` keys: an
    admit into a full cache evicts first."""
    now = 0.0
    for operation, pick, step in program:
        now += step
        resident = [key for key in KEYS if key in twin]
        if operation == "admit":
            key = KEYS[pick]
            if key in twin:
                continue
            while len(twin) >= capacity:
                evict_both(policy, twin, now)
                assert_agree(policy, twin, now, check_key)
            policy.on_admit(key, now)
            twin.on_admit(key, now)
        elif not resident:
            continue
        elif operation == "access":
            key = resident[pick % len(resident)]
            policy.on_access(key, now)
            twin.on_access(key, now)
        elif operation == "remove":
            key = resident[pick % len(resident)]
            policy.remove(key)
            twin.remove(key)
        else:
            evict_both(policy, twin, now)
        assert_agree(policy, twin, now, check_key)
    while len(twin):
        now += 1.0
        evict_both(policy, twin, now)
        assert_agree(policy, twin, now, check_key)


@settings(max_examples=150, deadline=None)
@given(
    program=programs,
    capacity=st.integers(2, 8),
    k=st.integers(1, 4),
    max_ghosts=st.integers(2, 12),
)
def test_lru_k_matches_its_twin(program, capacity, k, max_ghosts):
    policy = LRUKPolicy(k)
    policy.MAX_GHOSTS = max_ghosts
    drive(policy, TwinLRUK(k, max_ghosts), program, capacity)


@settings(max_examples=150, deadline=None)
@given(
    program=programs,
    capacity=st.integers(2, 8),
    decay=st.sampled_from([1e-3, 0.25, 5.0]),
)
def test_lrfu_matches_its_twin(program, capacity, decay):
    def check_key(policy, twin, key, now):
        assert policy.crf_log2(key, now) == twin.crf_log2(key, now)

    drive(LRFUPolicy(decay), TwinLRFU(decay), program, capacity, check_key)


@settings(max_examples=150, deadline=None)
@given(
    program=programs,
    capacity=st.integers(2, 8),
    interval=st.sampled_from([1.0, 7.5, 1000.0]),
)
def test_lrd_matches_its_twin(program, capacity, interval):
    def check_key(policy, twin, key, now):
        assert policy.reference_density(key, now) == twin.reference_density(
            key, now
        )

    drive(LRDPolicy(interval), TwinLRD(interval), program, capacity, check_key)


def check_estimate(policy, twin, key, now):
    assert policy.estimate(key, now) == twin.estimate(key, now)


@settings(max_examples=150, deadline=None)
@given(program=programs, capacity=st.integers(2, 8))
def test_mean_matches_its_twin(program, capacity):
    drive(MeanPolicy(), TwinDuration(), program, capacity, check_estimate)


@settings(max_examples=150, deadline=None)
@given(
    program=programs,
    capacity=st.integers(2, 8),
    window=st.integers(2, 4),
)
def test_window_matches_its_twin(program, capacity, window):
    drive(
        WindowPolicy(window), TwinDuration(window), program, capacity,
        check_estimate,
    )
