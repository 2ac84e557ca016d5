"""The flat-counter count-min sketch against a row-of-rows reference.

:class:`CountMinSketch` keeps one flat counter list and memoizes each
key's counter slots.  :class:`ReferenceSketch` is the earlier layout:
one list per row, the row indices re-derived from the memoized digest
on every call, conservative increment and halving written out row by
row.  Both hash the same ``repr`` through BLAKE2b, so on any sequence
of touches every key must read the same estimate after every
operation.  The widths and reset intervals drawn here are small, so
keys collide, counters saturate and halving fires many times per run.
"""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.core.replacement import CountMinSketch
from repro.oodb.objects import OID


class ReferenceSketch:
    def __init__(self, width, depth, reset_interval, max_count):
        self.width = width
        self.mask = width - 1
        self.depth = depth
        self.rows = [[0] * width for __ in range(depth)]
        self.reset_interval = reset_interval
        self.max_count = max_count
        self.ops = 0
        self.digests = {}

    def indices(self, key):
        digest = self.digests.get(key)
        if digest is None:
            raw = hashlib.blake2b(
                repr(key).encode("utf-8"), digest_size=16
            ).digest()
            digest = self.digests[key] = int.from_bytes(raw, "little")
        return [
            (digest >> (32 * row)) & self.mask for row in range(self.depth)
        ]

    def increment(self, key):
        indices = self.indices(key)
        estimate = min(
            self.rows[row][index] for row, index in enumerate(indices)
        )
        if estimate < self.max_count:
            for row, index in enumerate(indices):
                if self.rows[row][index] == estimate:
                    self.rows[row][index] = estimate + 1
        self.ops += 1
        if self.ops >= self.reset_interval:
            for row in self.rows:
                for index, value in enumerate(row):
                    if value:
                        row[index] = value >> 1
            self.ops >>= 1

    def estimate(self, key):
        return min(
            self.rows[row][index]
            for row, index in enumerate(self.indices(key))
        )


KEYS = [(OID("Root", n), attr) for n in range(12) for attr in ("a0", None)]


def assert_matches(width, depth, reset_interval, max_count, touches):
    sketch = CountMinSketch(
        width=width,
        depth=depth,
        reset_interval=reset_interval,
        max_count=max_count,
    )
    reference = ReferenceSketch(width, depth, reset_interval, max_count)
    for index in touches:
        sketch.increment(KEYS[index])
        reference.increment(KEYS[index])
        assert [sketch.estimate(key) for key in KEYS] == [
            reference.estimate(key) for key in KEYS
        ]


touch_lists = st.lists(st.integers(0, len(KEYS) - 1), max_size=200)


@settings(max_examples=150, deadline=None)
@given(
    width=st.sampled_from([1, 2, 4, 8]),
    depth=st.integers(1, 4),
    reset_interval=st.integers(1, 40),
    max_count=st.integers(1, 15),
    touches=touch_lists,
)
def test_flat_slots_match_row_of_rows(
    width, depth, reset_interval, max_count, touches
):
    assert_matches(width, depth, reset_interval, max_count, touches)


@settings(max_examples=5, deadline=None)
@given(touches=touch_lists)
def test_wide_sketch_matches_row_of_rows(touches):
    """More than 2**16 counters: slots are memoized as 32-bit values."""
    assert_matches(1 << 15, 4, 60, 3, touches)
