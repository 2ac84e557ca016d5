"""Unit and property tests for the byte-budgeted storage cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.replacement import LRUPolicy, create_policy
from repro.core.replacement.base import ReplacementPolicy
from repro.core.storage_cache import ClientStorageCache
from repro.errors import CacheError
from repro.obs.bus import EventBus
from repro.obs.events import CacheReject
from repro.oodb.objects import OID


def key(n, attr="a0"):
    return (OID("Root", n), attr)


def make_cache(capacity=400, policy=None):
    # `policy or ...` would discard any *empty* policy: ReplacementPolicy
    # defines __len__, and a freshly built policy is falsy.
    return ClientStorageCache(
        capacity, policy if policy is not None else LRUPolicy()
    )


class TestBasics:
    def test_capacity_must_be_positive(self):
        with pytest.raises(CacheError):
            make_cache(0)

    def test_admit_and_lookup(self):
        cache = make_cache()
        cache.admit(key(1), 42, 0, 100, now=0.0, expires_at=10.0)
        entry = cache.lookup(key(1))
        assert entry is not None
        assert entry.value == 42
        assert cache.used_bytes == 100
        assert len(cache) == 1

    def test_lookup_missing_returns_none(self):
        assert make_cache().lookup(key(9)) is None

    def test_oversized_item_rejected(self):
        cache = make_cache(100)
        with pytest.raises(CacheError):
            cache.admit(key(1), 1, 0, 101, now=0.0, expires_at=10.0)

    def test_touch_requires_residency(self):
        with pytest.raises(CacheError):
            make_cache().touch(key(1), 0.0)

    def test_eviction_frees_exactly_enough(self):
        cache = make_cache(250)
        cache.admit(key(1), 1, 0, 100, now=0.0, expires_at=float("inf"))
        cache.admit(key(2), 2, 0, 100, now=1.0, expires_at=float("inf"))
        evicted = cache.admit(
            key(3), 3, 0, 100, now=2.0, expires_at=float("inf")
        )
        assert evicted == [key(1)]  # LRU victim
        assert cache.used_bytes == 200
        assert key(1) not in cache

    def test_refresh_in_place(self):
        cache = make_cache()
        cache.admit(key(1), 1, 0, 100, now=0.0, expires_at=5.0)
        evicted = cache.admit(key(1), 2, 3, 100, now=6.0, expires_at=20.0)
        assert evicted == []
        entry = cache.lookup(key(1))
        assert entry.value == 2
        assert entry.version == 3
        assert entry.is_valid(15.0)
        assert len(cache) == 1
        assert cache.used_bytes == 100

    def test_invalidate(self):
        cache = make_cache()
        cache.admit(key(1), 1, 0, 100, now=0.0, expires_at=10.0)
        assert cache.invalidate(key(1), now=1.0)
        assert not cache.invalidate(key(1), now=2.0)
        assert cache.used_bytes == 0
        cache.check_invariants()

    def test_clear(self):
        cache = make_cache()
        for n in range(3):
            cache.admit(key(n), n, 0, 100, now=0.0, expires_at=10.0)
        cache.clear(now=1.0)
        assert len(cache) == 0
        assert cache.used_bytes == 0
        cache.check_invariants()

    def test_valid_fraction(self):
        cache = make_cache()
        cache.admit(key(1), 1, 0, 100, now=0.0, expires_at=5.0)
        cache.admit(key(2), 2, 0, 100, now=0.0, expires_at=50.0)
        assert cache.valid_fraction(10.0) == pytest.approx(0.5)
        assert make_cache().valid_fraction(0.0) == 0.0


class DenyAllPolicy(LRUPolicy):
    """LRU whose admission filter denies every pressured insert."""

    def should_admit(self, key, now):
        return False


class TestAdmissionControl:
    def test_denial_leaves_cache_untouched(self):
        cache = make_cache(200, DenyAllPolicy())
        cache.admit(key(1), 1, 0, 100, now=0.0, expires_at=float("inf"))
        cache.admit(key(2), 2, 0, 100, now=1.0, expires_at=float("inf"))
        evicted = cache.admit(
            key(3), 3, 0, 100, now=2.0, expires_at=float("inf")
        )
        assert evicted == []
        assert key(3) not in cache
        assert key(1) in cache and key(2) in cache
        assert cache.rejections == 1
        assert cache.evictions == 0
        cache.check_invariants()

    def test_filter_not_consulted_below_capacity(self):
        """should_admit gates *forced evictions* only: while the cache
        has room, even a deny-all filter admits freely."""
        cache = make_cache(300, DenyAllPolicy())
        for n in range(3):
            cache.admit(
                key(n), n, 0, 100, now=float(n), expires_at=float("inf")
            )
        assert len(cache) == 3
        assert cache.rejections == 0

    def test_refresh_bypasses_filter(self):
        cache = make_cache(200, DenyAllPolicy())
        cache.admit(key(1), 1, 0, 100, now=0.0, expires_at=5.0)
        cache.admit(key(2), 2, 0, 100, now=1.0, expires_at=5.0)
        # Resident key: in-place refresh, no admission decision.
        cache.admit(key(1), 9, 1, 100, now=2.0, expires_at=50.0)
        assert cache.lookup(key(1)).value == 9
        assert cache.rejections == 0

    def test_reject_event_emitted_when_wanted(self):
        captured = []
        bus = EventBus()
        bus.subscribe(CacheReject, captured.append)
        cache = ClientStorageCache(
            200, DenyAllPolicy(), name="c0", bus=bus, client_id=7
        )
        cache.admit(key(1), 1, 0, 100, now=0.0, expires_at=float("inf"))
        cache.admit(key(2), 2, 0, 100, now=1.0, expires_at=float("inf"))
        cache.admit(key(3), 3, 0, 100, now=2.0, expires_at=float("inf"))
        assert len(captured) == 1
        event = captured[0]
        assert event.key == key(3)
        assert event.client_id == 7
        assert event.cache == "c0"
        assert event.size_bytes == 100
        assert event.time == 2.0

    def test_default_policies_never_reject(self):
        cache = make_cache(300)
        for n in range(20):
            cache.admit(
                key(n), n, 0, 100, now=float(n), expires_at=float("inf")
            )
        assert cache.rejections == 0
        assert cache.evictions == 17

    def test_sketch_gate_denies_under_churn(self):
        """A one-shot stream past capacity under the sketch-gated policy
        is denied admission, one ``CacheReject`` per denial, while a
        re-touched key survives."""
        rejects = []
        bus = EventBus()
        bus.subscribe(CacheReject, rejects.append)
        cache = ClientStorageCache(
            1_000, create_policy("cmslru"), bus=bus, client_id=0
        )
        hot = key(0)
        clock = 0.0
        cache.admit(hot, 0, 0, 100, now=clock, expires_at=float("inf"))
        for n in range(1, 200):
            clock += 1.0
            cache.admit(
                key(n), n, 0, 100, now=clock, expires_at=float("inf")
            )
            if hot in cache:
                cache.touch(hot, clock + 0.5)
            cache.check_invariants()
        assert cache.rejections > 0
        assert len(rejects) == cache.rejections
        assert hot in cache

    def test_base_policy_admits_by_default(self):
        policy = LRUPolicy()
        assert policy.should_admit(key(1), 0.0) is True
        assert policy.segment_of(key(1)) is None


POLICY_SPECS = ["lru", "lru-3", "lrd", "mean", "window-4", "ewma-0.5",
                "clock", "fifo", "random-5", "tinylfu-10",
                "tinylfu-adaptive", "cmslru", "lrfu-0.001"]


@settings(max_examples=40, deadline=None)
@given(
    spec=st.sampled_from(POLICY_SPECS),
    operations=st.lists(
        st.tuples(
            st.sampled_from(["admit", "touch", "invalidate"]),
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=10, max_value=120),
        ),
        max_size=150,
    ),
)
def test_cache_invariants_under_any_policy(spec, operations):
    """Capacity, byte accounting and policy sync hold for every policy."""
    cache = ClientStorageCache(300, create_policy(spec))
    clock = 0.0
    for op, n, size in operations:
        clock += 1.0
        if op == "admit":
            cache.admit(key(n), n, 0, size, now=clock, expires_at=clock + 50)
        elif op == "touch" and key(n) in cache:
            cache.touch(key(n), clock)
        elif op == "invalidate":
            cache.invalidate(key(n), now=clock)
        cache.check_invariants()
        assert cache.used_bytes <= cache.capacity_bytes


@settings(max_examples=30, deadline=None)
@given(spec=st.sampled_from(POLICY_SPECS))
def test_hot_key_survives_cold_stream(spec):
    """A constantly re-touched key should survive a stream of one-shot
    insertions under every recency/frequency-aware policy.  FIFO and
    Random ignore accesses entirely, and CLOCK's single reference bit
    can lose the key under churn this heavy, so they are exempt."""
    cache = ClientStorageCache(500, create_policy(spec))
    hot = key(0)
    clock = 0.0
    cache.admit(hot, 0, 0, 100, now=clock, expires_at=float("inf"))
    for n in range(1, 60):
        clock += 1.0
        cache.admit(key(n), n, 0, 100, now=clock,
                    expires_at=float("inf"))
        if hot in cache:
            cache.touch(hot, clock + 0.5)
    if spec not in ("fifo", "random-5", "clock"):
        assert hot in cache
