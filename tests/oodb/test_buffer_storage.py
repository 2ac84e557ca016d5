"""Unit and property tests for buffer pools and the storage timing model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro._units import transmission_time
from repro.errors import CacheError
from repro.oodb.buffer import BufferPool
from repro.oodb.storage import (
    DISK_BANDWIDTH_BPS,
    MEMORY_BANDWIDTH_BPS,
    Medium,
    StorageModel,
)


class TestBufferPool:
    def test_negative_capacity_rejected(self):
        with pytest.raises(CacheError):
            BufferPool(-1)

    def test_zero_capacity_never_hits(self):
        pool = BufferPool(0)
        assert not pool.access("a")
        assert not pool.access("a")
        assert pool.hit_ratio == 0.0

    def test_miss_then_hit(self):
        pool = BufferPool(2)
        assert not pool.access("a")
        assert pool.access("a")
        assert pool.hits == 1
        assert pool.misses == 1

    def test_lru_eviction_order(self):
        pool = BufferPool(2)
        pool.access("a")
        pool.access("b")
        pool.access("a")  # refresh a; b is now LRU
        pool.access("c")  # evicts b
        assert "b" not in pool
        assert "a" in pool
        assert "c" in pool

    def test_capacity_never_exceeded(self):
        pool = BufferPool(3)
        for i in range(10):
            pool.access(i)
            assert len(pool) <= 3

    def test_evict_and_peek(self):
        pool = BufferPool(2)
        pool.access("a")
        assert pool.peek("a")
        assert pool.evict("a")
        assert not pool.peek("a")
        assert not pool.evict("a")

    def test_keys_in_lru_order(self):
        pool = BufferPool(3)
        for key in ("a", "b", "c"):
            pool.access(key)
        pool.access("a")
        assert pool.keys() == ["b", "c", "a"]

    @settings(max_examples=50, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=8),
        keys=st.lists(st.integers(min_value=0, max_value=20), max_size=200),
    )
    def test_matches_reference_lru(self, capacity, keys):
        """The pool must agree with a straightforward reference LRU."""
        pool = BufferPool(capacity)
        reference: list = []
        for key in keys:
            hit = pool.access(key)
            assert hit == (key in reference)
            if key in reference:
                reference.remove(key)
            reference.append(key)
            if len(reference) > capacity:
                reference.pop(0)
            assert set(pool.keys()) == set(reference)


class TestMedium:
    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            Medium(0)

    def test_access_time(self):
        # 1024 bytes at 40 Mbps = 8192 bits / 40e6 bps.
        medium = Medium(DISK_BANDWIDTH_BPS)
        assert medium.access_time(1024) == pytest.approx(8192 / 40e6)

    def test_bandwidth_is_read_only(self):
        # The memoized times are exact only while the rate is fixed.
        medium = Medium(DISK_BANDWIDTH_BPS)
        with pytest.raises(AttributeError):
            medium.bandwidth_bps = 1.0
        assert medium.bandwidth_bps == DISK_BANDWIDTH_BPS

    @settings(max_examples=100, deadline=None)
    @given(
        bandwidth=st.floats(1.0, 1e12),
        sizes=st.lists(
            st.one_of(st.integers(0, 10**6), st.floats(0.0, 1e6)),
            max_size=30,
        ),
    )
    def test_memoized_time_matches_the_formula(self, bandwidth, sizes):
        medium = Medium(bandwidth)
        for size in sizes + sizes:
            assert medium.access_time(size) == transmission_time(
                size, bandwidth
            )

    def test_negative_size_still_rejected(self):
        medium = Medium(DISK_BANDWIDTH_BPS)
        for __ in range(2):
            with pytest.raises(ValueError):
                medium.access_time(-1)


class TestStorageModel:
    def test_media_take_their_bandwidth_at_construction(self):
        model = StorageModel(
            2, disk_bandwidth_bps=1e6, memory_bandwidth_bps=5e6
        )
        assert model.disk.bandwidth_bps == 1e6
        assert model.memory.bandwidth_bps == 5e6

    def test_miss_costs_disk_plus_memory(self):
        model = StorageModel(buffer_capacity=2)
        miss_time = model.access("x", 1024)
        hit_time = model.access("x", 1024)
        expected_miss = Medium(DISK_BANDWIDTH_BPS).access_time(
            1024
        ) + Medium(MEMORY_BANDWIDTH_BPS).access_time(1024)
        assert miss_time == pytest.approx(expected_miss)
        assert hit_time == pytest.approx(
            Medium(MEMORY_BANDWIDTH_BPS).access_time(1024)
        )
        assert miss_time > hit_time

    def test_write_goes_to_disk(self):
        model = StorageModel(buffer_capacity=2)
        assert model.write("x", 1024) == pytest.approx(
            Medium(DISK_BANDWIDTH_BPS).access_time(1024)
        )

    def test_buffer_hit_ratio_exposed(self):
        model = StorageModel(buffer_capacity=1)
        model.access("x", 10)
        model.access("x", 10)
        assert model.buffer_hit_ratio == pytest.approx(0.5)

    def test_eviction_through_buffer(self):
        model = StorageModel(buffer_capacity=1)
        model.access("x", 10)
        model.access("y", 10)  # evicts x
        slow = model.access("x", 10)  # miss again
        assert slow > Medium(MEMORY_BANDWIDTH_BPS).access_time(10)
