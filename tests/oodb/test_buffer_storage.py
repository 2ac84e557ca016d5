"""Unit and property tests for the storage timing model and its LRU
memory buffer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro._units import transmission_time
from repro.errors import CacheError
from repro.oodb.storage import (
    DISK_BANDWIDTH_BPS,
    MEMORY_BANDWIDTH_BPS,
    StorageModel,
)


def hit(model, key):
    """Read ``key`` once; whether the buffer held it."""
    hits = model.hits
    model.access(key, 1)
    return model.hits > hits


class TestBufferPool:
    def test_negative_capacity_rejected(self):
        with pytest.raises(CacheError):
            StorageModel(-1)

    def test_zero_capacity_never_hits(self):
        model = StorageModel(0)
        assert not hit(model, "a")
        assert not hit(model, "a")
        assert model.buffer_hit_ratio == 0.0

    def test_miss_then_hit(self):
        model = StorageModel(2)
        assert not hit(model, "a")
        assert hit(model, "a")
        assert model.hits == 1
        assert model.misses == 1

    def test_lru_eviction_order(self):
        model = StorageModel(2)
        hit(model, "a")
        hit(model, "b")
        hit(model, "a")  # refresh a; b is now LRU
        hit(model, "c")  # evicts b
        assert hit(model, "a")
        assert hit(model, "c")
        assert not hit(model, "b")

    def test_capacity_never_exceeded(self):
        model = StorageModel(3)
        for key in range(10):
            hit(model, key)
        # Probing newest first, only the last three are still resident.
        assert [hit(model, key) for key in (9, 8, 7, 6)] == [
            True, True, True, False
        ]

    @settings(max_examples=50, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=8),
        keys=st.lists(st.integers(min_value=0, max_value=20), max_size=200),
    )
    def test_matches_reference_lru(self, capacity, keys):
        """The buffer must agree with a straightforward reference LRU."""
        model = StorageModel(capacity)
        reference: list = []
        for key in keys:
            assert hit(model, key) == (key in reference)
            if key in reference:
                reference.remove(key)
            reference.append(key)
            if len(reference) > capacity:
                reference.pop(0)


class TestMedium:
    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            StorageModel(1, disk_bandwidth_bps=0)
        with pytest.raises(ValueError):
            StorageModel(1, memory_bandwidth_bps=-1.0)

    def test_access_time(self):
        # 1024 bytes at 40 Mbps = 8192 bits / 40e6 bps.
        assert StorageModel(1).disk_time(1024) == pytest.approx(8192 / 40e6)

    def test_bandwidth_is_read_only(self):
        model = StorageModel(1)
        with pytest.raises(AttributeError):
            model.disk_bandwidth_bps = 1.0
        with pytest.raises(AttributeError):
            model.memory_bandwidth_bps = 1.0
        assert model.disk_bandwidth_bps == DISK_BANDWIDTH_BPS
        assert model.memory_bandwidth_bps == MEMORY_BANDWIDTH_BPS

    @settings(max_examples=100, deadline=None)
    @given(
        disk=st.floats(1.0, 1e12),
        memory=st.floats(1.0, 1e12),
        sizes=st.lists(
            st.one_of(st.integers(0, 10**6), st.floats(0.0, 1e6)),
            max_size=30,
        ),
    )
    def test_times_match_the_formula(self, disk, memory, sizes):
        model = StorageModel(4, disk, memory)
        for size in sizes + sizes:
            read_time = model.access(size, size)
            memory_time = transmission_time(size, memory)
            assert read_time in (
                memory_time,
                transmission_time(size, disk) + memory_time,
            )
            assert model.disk_time(size) == transmission_time(size, disk)
            assert model.write(size, size) == transmission_time(size, disk)

    def test_negative_size_still_rejected(self):
        model = StorageModel(1)
        for __ in range(2):
            with pytest.raises(ValueError):
                model.disk_time(-1)
            with pytest.raises(ValueError):
                model.access("x", -1)


class TestStorageModel:
    def test_media_take_their_bandwidth_at_construction(self):
        model = StorageModel(
            2, disk_bandwidth_bps=1e6, memory_bandwidth_bps=5e6
        )
        assert model.disk_bandwidth_bps == 1e6
        assert model.memory_bandwidth_bps == 5e6

    def test_miss_costs_disk_plus_memory(self):
        model = StorageModel(buffer_capacity=2)
        miss_time = model.access("x", 1024)
        hit_time = model.access("x", 1024)
        memory_time = transmission_time(1024, MEMORY_BANDWIDTH_BPS)
        assert miss_time == (
            transmission_time(1024, DISK_BANDWIDTH_BPS) + memory_time
        )
        assert hit_time == memory_time
        assert miss_time > hit_time

    def test_write_goes_to_disk(self):
        model = StorageModel(buffer_capacity=2)
        assert model.write("x", 1024) == transmission_time(
            1024, DISK_BANDWIDTH_BPS
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
        assert slow > transmission_time(10, MEMORY_BANDWIDTH_BPS)
