"""Unit and property tests for the lazily pruned score heap.

Every scored policy (LRU-k, LRD, LRFU, Mean, Window, EWMA) keeps one
stamped record per resident key and heaps of ``(score, stamp, record)``
entries that live while the stamp is the record's (``ScoredPolicy`` in
``base.py``).  ``ScoreTable`` below is that heap with nothing on top: it
admits or re-scores a key with the score it is given, and evicts the
smallest.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.replacement.base as base
from repro.core.replacement.base import COMPACTION_SLACK, ScoredPolicy
from repro.errors import ReplacementError
from tests.core.reference_heap import ReferenceLazyHeap


class ScoreTable(ScoredPolicy):
    """The shared heap as a key -> score table."""

    def set_score(self, key, score):
        record = self._records.get(key)
        if record is None:
            record = self._records[key] = [None, key]
        self._push(record, score)

    # A policy's notifications, with the score in place of the time.
    on_admit = on_access = set_score

    def peek_min(self):
        __, __, record = base.settled(self._heap)[0]
        return record[1]


class TestBasics:
    def test_empty_heap(self):
        heap = ScoreTable()
        assert len(heap) == 0
        with pytest.raises(ReplacementError, match="empty"):
            heap.evict(0.0)

    def test_min_ordering(self):
        heap = ScoreTable()
        heap.set_score("b", 2.0)
        heap.set_score("a", 1.0)
        heap.set_score("c", 3.0)
        assert heap.peek_min() == "a"
        assert heap.evict(0.0) == "a"
        assert heap.evict(0.0) == "b"
        assert heap.evict(0.0) == "c"

    def test_score_update_reorders(self):
        heap = ScoreTable()
        heap.set_score("a", 1.0)
        heap.set_score("b", 2.0)
        heap.set_score("a", 5.0)  # the dead entry must not win
        assert heap.evict(0.0) == "b"
        assert heap.evict(0.0) == "a"

    def test_discard(self):
        heap = ScoreTable()
        heap.set_score("a", 1.0)
        heap.set_score("b", 2.0)
        heap.remove("a")
        assert "a" not in heap
        assert heap.evict(0.0) == "b"
        assert len(heap) == 0

    def test_equal_scores_fifo_tiebreak(self):
        heap = ScoreTable()
        heap.set_score("first", 1.0)
        heap.set_score("second", 1.0)
        assert heap.evict(0.0) == "first"
        assert heap.evict(0.0) == "second"


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
    heap = ScoreTable()
    reference: dict[int, float] = {}
    tie = {}  # FIFO sequence for equal scores
    counter = 0
    for op, key, score in operations:
        if op == "set":
            counter += 1
            heap.set_score(key, score)
            reference[key] = score
            tie[key] = counter
        elif op == "discard" and key in reference:
            heap.remove(key)
            del reference[key]
        elif op == "pop" and reference:
            expected_key = min(
                reference, key=lambda k: (reference[k], tie[k])
            )
            assert heap.evict(0.0) == expected_key
            del reference[expected_key]
        assert len(heap) == len(reference)
        if reference:
            assert reference[heap.peek_min()] == min(reference.values())


def assert_bounded(heap):
    """At most one dead entry per live record, plus the slack."""
    records, live = heap.lazy_stores()["heap"]
    assert live == len(heap)
    assert records <= 2 * live + COMPACTION_SLACK


def assert_twins_agree(heap, reference):
    assert len(heap) == len(reference)
    if len(reference):
        assert heap.peek_min() == reference.peek_min()[1]
    else:
        with pytest.raises(ReplacementError):
            heap.evict(0.0)


def apply_both(heap, reference, operation, key, score):
    if operation == "set":
        heap.set_score(key, score)
        reference.set_score(key, score)
    elif operation == "discard":
        if key in reference:
            heap.remove(key)
            reference.discard(key)
    elif len(reference):
        assert heap.evict(0.0) == reference.pop_min()


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

    After every step the stamped heap and ``LazyScoreHeap`` as it was
    before it compacted agree on ``len``, the minimum and every evicted
    key, ties included, and the stamped heap holds at most two entries
    per live record plus the slack.
    """
    heap = ScoreTable()
    reference = ReferenceLazyHeap()
    for operation, key, score in operations:
        apply_both(heap, reference, operation, key, score)
        assert_bounded(heap)
        assert_twins_agree(heap, reference)
    while len(reference):
        assert heap.evict(0.0) == reference.pop_min()
        assert_bounded(heap)


def test_long_run_on_few_keys_rebuilds_and_agrees(monkeypatch):
    """12,000 steps, mostly re-scores of eight keys, force many rebuilds.

    Most steps re-score one of seven keys with one of six scores, so
    ties are common.  An eighth key usually holds the top with the
    lowest score, so the other keys' dead entries rarely surface:
    without a rebuild the heap would hold nearly every entry ever
    pushed.  Now and then an eviction or a removal reorders what is
    left.
    """
    rebuilds = []
    rebuilt = base.rebuilt

    def counting(heap):
        rebuilds.append(len(heap))
        return rebuilt(heap)

    monkeypatch.setattr(base, "rebuilt", counting)
    rng = random.Random(11)
    heap = ScoreTable()
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
        assert heap.evict(0.0) == reference.pop_min()
    assert_twins_agree(heap, reference)
    assert not base.live_entries(heap._heap)


def test_rebuild_keeps_exactly_the_live_records():
    heap = ScoreTable()
    for round_ in range(COMPACTION_SLACK):
        for key in "abc":
            heap.set_score(key, -round_)
    heap._heap = base.rebuilt(heap._heap)
    assert sorted(record[1] for __, __, record in heap._heap) == ["a", "b", "c"]
    assert all(stamp == record[0] for __, stamp, record in heap._heap)
    # Equal scores: first set, first out.
    assert [heap.evict(0.0) for __ in range(3)] == ["a", "b", "c"]
