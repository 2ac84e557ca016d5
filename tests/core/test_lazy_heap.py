"""Unit and property tests for the lazy score heap."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.replacement.base import COMPACTION_SLACK, LazyScoreHeap
from repro.errors import ReplacementError
from tests.core.reference_heap import ReferenceLazyHeap


class TestBasics:
    def test_empty_heap(self):
        heap = LazyScoreHeap()
        assert len(heap) == 0
        with pytest.raises(ReplacementError):
            heap.peek_min()
        with pytest.raises(ReplacementError):
            heap.pop_min()

    def test_min_ordering(self):
        heap = LazyScoreHeap()
        heap.set_score("b", 2.0)
        heap.set_score("a", 1.0)
        heap.set_score("c", 3.0)
        assert heap.peek_min() == (1.0, "a")
        assert heap.pop_min() == "a"
        assert heap.pop_min() == "b"
        assert heap.pop_min() == "c"

    def test_score_update_reorders(self):
        heap = LazyScoreHeap()
        heap.set_score("a", 1.0)
        heap.set_score("b", 2.0)
        heap.set_score("a", 5.0)  # stale record must not win
        assert heap.pop_min() == "b"
        assert heap.pop_min() == "a"

    def test_discard(self):
        heap = LazyScoreHeap()
        heap.set_score("a", 1.0)
        heap.set_score("b", 2.0)
        heap.discard("a")
        assert "a" not in heap
        assert heap.pop_min() == "b"
        assert len(heap) == 0

    def test_discard_absent_is_noop(self):
        heap = LazyScoreHeap()
        heap.discard("ghost")
        assert len(heap) == 0

    def test_score_of(self):
        heap = LazyScoreHeap()
        heap.set_score("a", 4.5)
        assert heap.score_of("a") == 4.5
        with pytest.raises(KeyError):
            heap.score_of("missing")

    def test_equal_scores_fifo_tiebreak(self):
        heap = LazyScoreHeap()
        heap.set_score("first", 1.0)
        heap.set_score("second", 1.0)
        assert heap.pop_min() == "first"
        assert heap.pop_min() == "second"


@settings(max_examples=80, deadline=None)
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["set", "discard", "pop"]),
            st.integers(min_value=0, max_value=12),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        ),
        max_size=200,
    )
)
def test_matches_reference_dict(operations):
    """The heap must always agree with a brute-force min search."""
    heap = LazyScoreHeap()
    reference: dict[int, float] = {}
    tie = {}  # FIFO sequence for equal scores
    counter = 0
    for op, key, score in operations:
        if op == "set":
            counter += 1
            heap.set_score(key, score)
            reference[key] = score
            tie[key] = counter
        elif op == "discard":
            heap.discard(key)
            reference.pop(key, None)
        elif op == "pop" and reference:
            expected_key = min(
                reference, key=lambda k: (reference[k], tie[k])
            )
            assert heap.pop_min() == expected_key
            del reference[expected_key]
        assert len(heap) == len(reference)
        if reference:
            score, key = heap.peek_min()
            assert score == min(reference.values())


def assert_bounded(heap):
    """At most one stale record per live key, plus the slack."""
    assert len(heap._heap) <= 2 * len(heap) + COMPACTION_SLACK


def assert_twins_agree(heap, reference):
    assert len(heap) == len(reference)
    assert heap.top() == reference.top()
    if len(reference):
        assert heap.peek_min() == reference.peek_min()
    else:
        with pytest.raises(ReplacementError):
            heap.peek_min()


def apply_both(heap, reference, operation, key, score):
    if operation == "set":
        heap.set_score(key, score)
        reference.set_score(key, score)
    elif operation == "discard":
        heap.discard(key)
        reference.discard(key)
    elif len(reference):
        assert heap.pop_min() == reference.pop_min()


@settings(max_examples=60, deadline=None)
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["set"] * 6 + ["discard", "pop"]),
            st.integers(min_value=0, max_value=40),
            # Few distinct integer scores make equal-score ties common;
            # the floats mix in arbitrary values.
            st.one_of(
                st.integers(min_value=-3, max_value=3),
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            ),
        ),
        # Long enough that most programs rebuild at least once.
        min_size=80,
        max_size=250,
    )
)
def test_matches_the_non_compacting_twin(operations):
    """The rebuild never changes what the heap answers.

    After every step the compacting heap and the pre-compaction class
    agree on ``len``, ``top``, ``peek_min`` and every popped key, ties
    included, and the compacting heap holds at most two records per
    live key plus the slack.
    """
    heap = LazyScoreHeap()
    reference = ReferenceLazyHeap()
    for operation, key, score in operations:
        apply_both(heap, reference, operation, key, score)
        assert_bounded(heap)
        assert_twins_agree(heap, reference)
    while len(reference):
        assert heap.pop_min() == reference.pop_min()
        assert_bounded(heap)


def test_long_run_on_few_keys_rebuilds_and_agrees(monkeypatch):
    """Over 10k re-scores of eight keys force many rebuilds.

    Most steps re-score one of seven keys with one of six scores, so
    ties are common.  An eighth key usually holds the top with the
    lowest score, so the other keys' stale records rarely surface:
    without a rebuild the heap would hold nearly every record ever
    pushed.  Now and then a pop or a discard reorders what is left.
    """
    rebuilds = []
    compact = LazyScoreHeap._compact

    def counting(heap):
        rebuilds.append(len(heap._heap))
        compact(heap)

    monkeypatch.setattr(LazyScoreHeap, "_compact", counting)
    rng = random.Random(11)
    heap = LazyScoreHeap()
    reference = ReferenceLazyHeap()
    keys = [("k", n) for n in range(8)]
    for step in range(12_000):
        draw = rng.random()
        if draw < 0.02:
            operation, key = "pop", None
        elif draw < 0.04:
            operation, key = "discard", rng.choice(keys)
        elif step % 50 == 0:
            operation, key = "set", keys[0]
        else:
            operation, key = "set", rng.choice(keys[1:])
        score = -1 if key == keys[0] else rng.randint(0, 5)
        apply_both(heap, reference, operation, key, score)
        assert_bounded(heap)
        assert_twins_agree(heap, reference)
    assert len(rebuilds) > 100
    assert len(reference._heap) > 10 * len(heap._heap)
    while len(reference):
        assert heap.pop_min() == reference.pop_min()
    assert heap.top() is None


def test_rebuild_keeps_exactly_the_live_records():
    heap = LazyScoreHeap()
    for round_ in range(COMPACTION_SLACK):
        for key in "abc":
            heap.set_score(key, -round_)
    heap._compact()
    assert sorted(heap._heap) == sorted(heap._scores.values())
    # Equal scores: first set, first out.
    assert [heap.pop_min() for __ in range(3)] == ["a", "b", "c"]
