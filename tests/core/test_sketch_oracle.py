"""The flat-counter count-min sketch against a row-of-rows reference.

:class:`CountMinSketch` keeps one flat counter list and looks each key's
counter slots up in a memo shared by every sketch of its
``(width, depth)`` shape.  :class:`ReferenceSketch` is the earlier layout:
one list per row, the row indices re-derived from the memoized digest
on every call, conservative increment and halving written out row by
row.  Both hash the same ``repr`` through BLAKE2b, so on any sequence
of touches every key must read the same estimate after every
operation.  The widths and reset intervals drawn here are small, so
keys collide, counters saturate and halving fires many times per run.
Touches to several sketches are interleaved in one process, some of one
shape and some not, so a memo entry made by one sketch serves another.
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


@settings(max_examples=150, deadline=None)
@given(
    width=st.sampled_from([1, 2, 4, 8]),
    depth=st.integers(1, 4),
    other_width=st.sampled_from([1, 2, 4, 8]),
    params=st.lists(
        st.tuples(st.integers(1, 40), st.integers(1, 15)),
        min_size=3,
        max_size=3,
    ),
    touches=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, len(KEYS) - 1)),
        max_size=200,
    ),
)
def test_interleaved_sketches_share_slots_by_shape(
    width, depth, other_width, params, touches
):
    """Sketches 0 and 1 share a shape and sketch 2 has another depth;
    each matches its own reference after every touch to any of them."""
    shapes = [(width, depth), (width, depth), (other_width, depth % 4 + 1)]
    sketches = [
        CountMinSketch(width=w, depth=d, reset_interval=r, max_count=m)
        for (w, d), (r, m) in zip(shapes, params, strict=True)
    ]
    references = [
        ReferenceSketch(w, d, r, m)
        for (w, d), (r, m) in zip(shapes, params, strict=True)
    ]
    assert sketches[0]._slots is sketches[1]._slots
    assert sketches[0]._slots is not sketches[2]._slots
    for which, index in touches:
        sketches[which].increment(KEYS[index])
        references[which].increment(KEYS[index])
        for sketch, reference in zip(sketches, references, strict=True):
            assert [sketch.estimate(key) for key in KEYS] == [
                reference.estimate(key) for key in KEYS
            ]
