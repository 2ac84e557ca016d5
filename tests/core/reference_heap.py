"""The key -> score heap as it was before it compacted: a slow twin.

A verbatim copy of ``LazyScoreHeap`` before stale records were dropped
by a rebuild (the class itself has since given way to the stamped
records of ``ScoredPolicy``).  Its heap keeps every record it was ever
pushed until the record reaches the top, so it is the reference the
stamped heap is compared with (``test_lazy_heap.py``) and the heap the
EWMA reference policy runs on (``test_ewma_oracle.py``).
"""

import heapq

from repro.errors import ReplacementError


class ReferenceLazyHeap:
    """Min-heap over (score, key) with lazy invalidation, never rebuilt."""

    def __init__(self):
        self._heap = []
        self._scores = {}
        self._seq = 0

    def __contains__(self, key):
        return key in self._scores

    def __len__(self):
        return len(self._scores)

    def set_score(self, key, score):
        self._seq += 1
        self._scores[key] = (score, self._seq)
        heapq.heappush(self._heap, (score, self._seq, key))

    def score_of(self, key):
        return self._scores[key][0]

    def discard(self, key):
        self._scores.pop(key, None)

    def top(self):
        self._settle()
        heap = self._heap
        if not heap:
            return None
        score, __, key = heap[0]
        return score, key

    def peek_min(self):
        self._settle()
        if not self._heap:
            raise ReplacementError("heap is empty")
        score, __, key = self._heap[0]
        return score, key

    def pop_min(self):
        self._settle()
        if not self._heap:
            raise ReplacementError("heap is empty")
        __, __, key = heapq.heappop(self._heap)
        del self._scores[key]
        return key

    def _settle(self):
        heap = self._heap
        scores = self._scores
        while heap:
            __, seq, key = heap[0]
            live = scores.get(key)
            if live is None or live[1] != seq:
                heapq.heappop(heap)
            else:
                return
