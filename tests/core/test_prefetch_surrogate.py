"""Unit tests for the prefetch tracker and the surrogate cache table."""

import pytest

from repro.core.granularity import CachingGranularity
from repro.core.prefetch import AttributeAccessTracker
from repro.core.replacement import LRUPolicy
from repro.core.storage_cache import ClientStorageCache
from repro.core.surrogate import LocalDatabase
from repro.errors import CacheError
from repro.oodb.objects import OID
from repro.oodb.schema import default_root_schema


class TestAttributeAccessTracker:
    def test_empty_tracker_prefetches_nothing(self):
        tracker = AttributeAccessTracker()
        root = default_root_schema().class_def("Root")
        assert tracker.prefetch_set(0, root) == set()
        assert tracker.access_probabilities(0, "Root") == {}

    def test_probabilities_sum_to_one(self):
        tracker = AttributeAccessTracker()
        for attribute, count in (("a0", 3), ("a1", 1)):
            for __ in range(count):
                tracker.record_access(0, "Root", (attribute,))
        probabilities = tracker.access_probabilities(0, "Root")
        assert sum(probabilities.values()) == pytest.approx(1.0)
        assert probabilities["a0"] == pytest.approx(0.75)

    def test_clients_tracked_separately(self):
        tracker = AttributeAccessTracker()
        tracker.record_access(0, "Root", ("a0",))
        tracker.record_access(1, "Root", ("a5",))
        assert "a5" not in tracker.access_probabilities(0, "Root")
        assert tracker.observed_classes() == [(0, "Root"), (1, "Root")]

    def test_hot_attributes_selected(self):
        tracker = AttributeAccessTracker()
        root = default_root_schema().class_def("Root")
        for attribute, count in (("a0", 60), ("a1", 30), ("a2", 10)):
            for __ in range(count):
                tracker.record_access(0, "Root", (attribute,))
        hot = tracker.prefetch_set(0, root)
        assert "a0" in hot
        assert "a2" not in hot

    def test_floor_uses_observed_attributes(self):
        tracker = AttributeAccessTracker(floor_at_uniform=True)
        root = default_root_schema().class_def("Root")
        for attribute, count in (("a0", 60), ("a1", 40)):
            for __ in range(count):
                tracker.record_access(0, "Root", (attribute,))
        # Two observed attributes -> floor 0.5; only a0 clears it.
        assert tracker.threshold(0, root) == pytest.approx(0.5)
        assert tracker.prefetch_set(0, root) == {"a0"}

    def test_literal_rule_without_floor(self):
        """Un-floored mu - 2 sigma goes negative under skew and admits
        every observed attribute (the degeneracy DESIGN.md documents)."""
        tracker = AttributeAccessTracker(floor_at_uniform=False)
        root = default_root_schema().class_def("Root")
        for attribute, count in (("a0", 60), ("a1", 30), ("a2", 10)):
            for __ in range(count):
                tracker.record_access(0, "Root", (attribute,))
        assert tracker.threshold(0, root) < 0
        assert tracker.prefetch_set(0, root) == {"a0", "a1", "a2"}


    def test_probability_keys_are_sorted_regardless_of_access_order(self):
        # Regression for the REP003 fix: the returned mapping's build
        # order comes from sorted(...), not from dict insertion order.
        def record_all(order):
            tracker = AttributeAccessTracker()
            for name in order:
                tracker.record_access(0, "Root", (name,))
            return tracker.access_probabilities(0, "Root")

        forward = record_all(["a0", "a1", "a2"])
        backward = record_all(["a2", "a1", "a0"])
        assert list(forward) == list(backward) == ["a0", "a1", "a2"]
        assert forward == backward


class TestLocalDatabase:
    def build(self, granularity=CachingGranularity.ATTRIBUTE):
        schema = default_root_schema()
        cache = ClientStorageCache(10_000, LRUPolicy())
        return LocalDatabase(schema, cache, granularity), cache

    def test_surrogate_creation_and_reuse(self):
        local, __ = self.build()
        oid = OID("Root", 1)
        first = local.ensure_surrogate(oid)
        second = local.ensure_surrogate(oid)
        assert first is second
        assert first.r_oid == oid
        assert first.r_host == "server-0"
        assert len(local) == 1

    def test_unknown_class_rejected(self):
        local, __ = self.build()
        with pytest.raises(CacheError):
            local.ensure_surrogate(OID("Nope", 1))

    def test_surrogates_listed_in_oid_order(self):
        local, __ = self.build()
        for n in (3, 1, 2):
            local.ensure_surrogate(OID("Root", n))
        numbers = [s.r_oid.number for s in local.surrogates("Root")]
        assert numbers == [1, 2, 3]

    def test_read_attribute_roundtrip(self):
        local, cache = self.build()
        oid = OID("Root", 1)
        cache.admit((oid, "a0"), 42, 0, 80, now=0.0, expires_at=100.0)
        assert local.read_attribute(oid, "a0", now=5.0) == 42

    def test_expired_attribute_reads_none(self):
        local, cache = self.build()
        oid = OID("Root", 1)
        cache.admit((oid, "a0"), 42, 0, 80, now=0.0, expires_at=10.0)
        assert local.read_attribute(oid, "a0", now=50.0) is None

    def test_uncached_attribute_reads_none(self):
        local, __ = self.build()
        assert local.read_attribute(OID("Root", 1), "a0", now=0.0) is None

    def test_object_granularity_projection(self):
        local, cache = self.build(CachingGranularity.OBJECT)
        oid = OID("Root", 1)
        cache.admit(
            (oid, None),
            {"a0": 7, "a1": 8},
            0,
            1024,
            now=0.0,
            expires_at=100.0,
        )
        assert local.read_attribute(oid, "a0", now=1.0) == 7
        assert local.read_attribute(oid, "a1", now=1.0) == 8

    def test_is_cached(self):
        local, cache = self.build()
        oid = OID("Root", 1)
        assert not local.is_cached(oid, "a0")
        cache.admit((oid, "a0"), 1, 0, 80, now=0.0, expires_at=10.0)
        assert local.is_cached(oid, "a0")

    def test_forget_drops_surrogate_and_entries(self):
        local, cache = self.build()
        oid = OID("Root", 1)
        other = OID("Root", 2)
        local.ensure_surrogate(oid)
        cache.admit((oid, "a0"), 1, 0, 80, now=0.0, expires_at=10.0)
        cache.admit((oid, "a1"), 1, 0, 80, now=0.0, expires_at=10.0)
        cache.admit((other, "a0"), 1, 0, 80, now=0.0, expires_at=10.0)
        dropped = local.forget(oid, now=1.0)
        assert dropped == 2
        assert local.surrogate_for(oid) is None
        assert cache.lookup((other, "a0")) is not None
