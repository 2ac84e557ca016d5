"""EWMA's stamped-record fast path against a copy of an older version.

``EWMAPolicy`` keeps one record per resident key and lets the young
FIFO and its three plain heaps (scored, knees, drift) hold entries that
live only while their stamp is the record's: an access or a migration
restamps the record instead of discarding the key from each structure.
``ReferenceEWMA`` below is the policy as it was before stamped records:
an ordered dict of young keys and three key -> score tables, with
residency checked separately, every regime detached on each access and
each heap settled twice.  The tables are ``ReferenceLazyHeap``, the
score heap as it was before heaps compacted, so the comparison covers
the fast policy's rebuilds too.  Hypothesis drives both through the same random
sequence of admits, accesses, evictions and removals at non-decreasing
times; after every step they must agree on the victim,
``last_eviction_score``, and every resident key's ``estimate``,
``mean_duration`` and regime, and every store of the fast policy must
hold within its bound exactly the live entries it declares.  Traces of
same-instant accesses give keys equal means, so the heaps' tie order is
compared as well.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.replacement.base import COMPACTION_SLACK, ReplacementPolicy
from repro.core.replacement.duration import EWMAPolicy
from repro.errors import ReplacementError
from tests.core.reference_heap import ReferenceLazyHeap


class ReferenceEWMA(ReplacementPolicy):
    """``EWMAPolicy`` as it was before the single-probe rewrite, on
    heaps that never compact: the twin of the stamped records."""

    DRIFT_TOLERANCE = 2.0

    def __init__(self, alpha=0.5, drift_tolerance=None, young_penalty=3.0):
        self.young_penalty = float(young_penalty)
        self.drift_tolerance = (
            self.DRIFT_TOLERANCE
            if drift_tolerance is None
            else float(drift_tolerance)
        )
        self.alpha = float(alpha)
        self._state = {}
        self._young = OrderedDict()
        self._frozen = ReferenceLazyHeap()
        self._knees = ReferenceLazyHeap()
        self._drift = ReferenceLazyHeap()

    def __contains__(self, key):
        return key in self._state

    def __len__(self):
        return len(self._state)

    def _rank(self, key, now):
        mean, last = self._state[key]
        elapsed = now - last
        if mean is None:
            return self.young_penalty * elapsed
        overdue = max(elapsed / self.drift_tolerance, mean)
        return self.alpha * mean + (1.0 - self.alpha) * overdue

    def _detach(self, key):
        if self._young.pop(key, None) is None:
            self._frozen.discard(key)
            self._knees.discard(key)
            self._drift.discard(key)

    def _drift_rank_static(self, mean, last):
        return (
            self.alpha * mean
            - (1.0 - self.alpha) * last / self.drift_tolerance
        )

    def on_admit(self, key, now):
        self._require_absent(key)
        self._state[key] = (None, now)
        self._young[key] = now

    def on_access(self, key, now):
        self._require_resident(key)
        mean, last = self._state[key]
        duration = now - last
        if mean is None:
            mean = duration
        else:
            mean = (1.0 - self.alpha) * duration + self.alpha * mean
        self._state[key] = (mean, now)
        self._detach(key)
        self._frozen.set_score(key, -mean)
        self._knees.set_score(key, now + self.drift_tolerance * mean)

    def remove(self, key):
        self._require_resident(key)
        self._detach(key)
        del self._state[key]

    def _migrate_overdue(self, now):
        while len(self._knees):
            knee, key = self._knees.peek_min()
            if knee > now:
                return
            self._knees.discard(key)
            self._frozen.discard(key)
            mean, last = self._state[key]
            self._drift.set_score(
                key, -self._drift_rank_static(mean, last)
            )

    def evict(self, now):
        self._require_nonempty()
        self._migrate_overdue(now)
        best_key = None
        best_rank = -1.0
        if self._young:
            key = next(iter(self._young))
            best_key = key
            best_rank = self.young_penalty * (now - self._young[key])
        if len(self._frozen):
            negated, key = self._frozen.peek_min()
            if -negated > best_rank:
                best_key, best_rank = key, -negated
        if len(self._drift):
            negated, key = self._drift.peek_min()
            rank = (
                (1.0 - self.alpha) * now / self.drift_tolerance + -negated
            )
            if rank > best_rank:
                best_key, best_rank = key, rank
        self._detach(best_key)
        del self._state[best_key]
        self.last_eviction_score = best_rank
        return best_key

    def mean_duration(self, key):
        self._require_resident(key)
        mean, __ = self._state[key]
        return mean if mean is not None else 0.0

    def estimate(self, key, now):
        self._require_resident(key)
        return self._rank(key, now)


#: (operation, key choice, time step).  Small integer steps make ties
#: between ranks, knees and the clock common.
steps = st.lists(
    st.tuples(
        st.sampled_from(["admit", "access", "access", "evict", "remove"]),
        st.integers(0, 15),
        st.one_of(st.integers(0, 5), st.floats(0.0, 50.0)),
    ),
    min_size=40,
    max_size=150,
)


def regimes(policy, key):
    """The reference's regime membership: (young, frozen, knees, drift)."""
    return (
        key in policy._young,
        key in policy._frozen,
        key in policy._knees,
        key in policy._drift,
    )


def check_agree(fast, slow, now):
    assert len(fast) == len(slow)
    for key in slow._state:
        assert key in fast
        assert fast.estimate(key, now) == slow.estimate(key, now)
        assert fast.mean_duration(key) == slow.mean_duration(key)
        # A key left live in a regime it moved out of would rank twice
        # at a later eviction, and one live nowhere would never rank.
        assert fast.regime_entries(key) == tuple(
            int(member) for member in regimes(slow, key)
        )
    check_stores(fast, slow._state)


def check_stores(fast, keys):
    """Each store declares its true live count over the resident
    ``keys`` and keeps its bound."""
    stores = fast.lazy_stores()
    assert list(stores) == ["young", "scored", "knees", "drift"]
    for position, (records, live) in enumerate(stores.values()):
        assert live == sum(fast.regime_entries(k)[position] for k in keys)
        assert records <= 2 * live + COMPACTION_SLACK


def evict_both(fast, slow, now):
    assert fast.evict(now) == slow.evict(now)
    assert fast.last_eviction_score == slow.last_eviction_score


@settings(max_examples=150, deadline=None)
@given(
    program=steps,
    capacity=st.integers(2, 8),
    alpha=st.sampled_from([0.25, 0.5, 0.9]),
    tolerance=st.sampled_from([1.0, 2.0, 3.5]),
)
def test_ewma_matches_the_reference(program, capacity, alpha, tolerance):
    """Drive both like a cache of ``capacity`` keys: an admit evicts
    first when full, so evictions, and with them the drifting regime,
    interleave with accesses."""
    fast = EWMAPolicy(alpha=alpha, drift_tolerance=tolerance)
    slow = ReferenceEWMA(alpha=alpha, drift_tolerance=tolerance)
    now = 0.0
    for operation, pick, step in program:
        now += step
        resident = sorted(slow._state)
        if operation == "admit":
            key = ("k", pick)
            if key in slow:
                continue
            while len(slow) >= capacity:
                evict_both(fast, slow, now)
            fast.on_admit(key, now)
            slow.on_admit(key, now)
        elif not resident:
            continue
        elif operation == "access":
            key = resident[pick % len(resident)]
            fast.on_access(key, now)
            slow.on_access(key, now)
        elif operation == "remove":
            key = resident[pick % len(resident)]
            fast.remove(key)
            slow.remove(key)
        else:
            evict_both(fast, slow, now)
        check_agree(fast, slow, now)
    while len(slow):
        now += 1.0
        evict_both(fast, slow, now)
        check_agree(fast, slow, now)


#: Rounds of accesses that share one instant: (time step, key picks).
#: Keys accessed together in two rounds close equal gaps, so their
#: means tie and the heaps order them by sequence alone.
tie_rounds = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.lists(st.integers(0, 11), min_size=1, max_size=8),
    ),
    min_size=5,
    max_size=60,
)


def play(policy, rounds, capacity):
    """Drive ``policy`` like a cache; return its victims in order."""
    victims = []
    now = 0.0
    for step, picks in rounds:
        now += step
        for pick in picks:
            key = ("k", pick)
            if key in policy:
                policy.on_access(key, now)
                continue
            while len(policy) >= capacity:
                victims.append((policy.evict(now), policy.last_eviction_score))
            policy.on_admit(key, now)
    return victims


def drain(policy, now):
    victims = []
    while len(policy):
        now += 1.0
        victims.append((policy.evict(now), policy.last_eviction_score))
    return victims


def heap_records(policy):
    """Records the reference's three heaps hold."""
    return sum(
        len(heap._heap)
        for heap in (policy._frozen, policy._knees, policy._drift)
    )


def store_records(policy):
    """Entries every store of the fast policy holds, its FIFO too."""
    return sum(records for records, __ in policy.lazy_stores().values())


@settings(max_examples=150, deadline=None)
@given(
    rounds=tie_rounds,
    capacity=st.integers(2, 8),
    tolerance=st.sampled_from([1.0, 2.0]),
)
def test_same_instant_ties_evict_alike(rounds, capacity, tolerance):
    fast = EWMAPolicy(drift_tolerance=tolerance)
    slow = ReferenceEWMA(drift_tolerance=tolerance)
    assert play(fast, rounds, capacity) == play(slow, rounds, capacity)
    end = sum(step for step, __ in rounds)
    assert drain(fast, end) == drain(slow, end)


def test_long_tie_trace_compacts_and_evicts_alike():
    """Thousands of same-instant rounds on a few keys.

    Six hot keys share every instant, so their means tie.  A warm key,
    seen in two rounds of every 20, holds the frozen heap's top (the
    largest mean), so the hot keys' stale records never surface there:
    the reference's frozen heap grows with the trace, while the fast
    policy's stores rebuild and stay within their bounds.  A new key
    every 10 rounds forces an eviction, and the final drain evicts the
    tied hot keys.  The eviction sequences are identical all the same.
    """
    rounds = []
    for n in range(3000):
        picks = [0, 1, 2, 3, 4, 5]
        if n % 20 in (0, 1):
            picks.append(6)
        if n % 10 == 5:
            picks.append(100 + n)
        rounds.append((1 + n % 2, picks))
    fast = EWMAPolicy()
    slow = ReferenceEWMA()
    victims = play(fast, rounds, 8)
    assert victims == play(slow, rounds, 8)
    assert len(victims) > 250
    check_stores(fast, slow._state)
    assert heap_records(slow) > 10 * store_records(fast)
    end = sum(step for step, __ in rounds)
    assert drain(fast, end) == drain(slow, end)


def test_every_regime_move_keeps_its_stores_bounded():
    """Forty keys at a time take each regime move until the regime they
    leave is empty: admitted young, then removed or accessed into
    frozen; re-accessed in place; migrated into drifting by an
    eviction; accessed back into frozen or removed.  Each move leaves
    more dead entries in one store than the slack allows unless the
    store is checked right there, and both policies must agree after
    every step."""
    fast = EWMAPolicy()
    slow = ReferenceEWMA()
    now = 0.0

    def step(method, *args):
        assert getattr(fast, method)(*args) == getattr(slow, method)(*args)
        assert fast.last_eviction_score == slow.last_eviction_score
        check_agree(fast, slow, now)

    def admit_and_access(group):
        """Admit ``group`` and access it three times: frozen, with
        every key's young entry and two frozen entries dead."""
        nonlocal now
        for key in group:
            step("on_admit", key, now)
        for __ in range(3):
            now += 1.0
            for key in group:
                step("on_access", key, now)

    def migrate_all():
        """One eviction once every knee has passed: the rest drift."""
        nonlocal now
        now += 100.0
        step("evict", now)

    for key in [("young", n) for n in range(40)]:
        step("on_admit", key, now)
    for key in [("young", n) for n in range(40)]:
        step("remove", key)  # young -> gone
    back = [("back", n) for n in range(40)]
    admit_and_access(back)  # young -> frozen -> frozen
    migrate_all()  # frozen -> drifting
    now += 1.0
    for key in back:
        if key in slow:
            step("on_access", key, now)  # drifting -> frozen
    for key in back:
        if key in slow:
            step("remove", key)  # frozen -> gone
    gone = [("gone", n) for n in range(40)]
    admit_and_access(gone)
    migrate_all()
    for key in gone:
        if key in slow:
            step("remove", key)  # drifting -> gone
    assert len(slow) == 0
    # Most of frozen migrates under a key that stays frozen on top (the
    # largest mean, its knee far off), so settling the frozen heap at
    # eviction drops none of the migrated keys' entries; an old young
    # key is the victim.
    step("on_admit", "old", now)
    step("on_admit", "slow", now)
    now += 50.0
    step("on_access", "slow", now)
    admit_and_access([("fast", n) for n in range(40)])
    now += 10.0
    step("evict", now)
    assert "old" not in slow and "slow" in slow


def test_failure_branches_still_raise():
    policy = EWMAPolicy()
    with pytest.raises(ReplacementError, match="not resident"):
        policy.on_access("ghost", 1.0)
    policy.on_admit("k", 0.0)
    with pytest.raises(ReplacementError, match="already resident"):
        policy.on_admit("k", 1.0)
