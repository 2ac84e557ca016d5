"""Unit tests for the prefetch tracker."""

import pytest

from repro.core.prefetch import AttributeAccessTracker
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
