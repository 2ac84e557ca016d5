"""``BucketedSeries.record`` against the ``dict.get`` version it replaced,
and ``record_batch`` against repeated ``record`` calls.

The fast ``record`` updates an existing bucket in place and stores
``0.0 + value`` for a bucket's first sample.  ``GetSeries`` keeps the
older body, which read both tables with ``get`` defaults on every
sample.  Fed the same samples (0/1 flags, bools, ints and floats),
both must hold the same counts, bit-identical sums and the same whole
and windowed means.  A batch of 0/1 samples (bools or ints) must leave
the series exactly as recording them one by one does, and an empty
batch must create no bucket.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.stats import BucketedSeries


class GetSeries(BucketedSeries):
    def record(self, now, value):
        if now < 0:
            raise ValueError(f"negative sample time: {now!r}")
        bucket = int(now // self.bucket_seconds)
        self._counts[bucket] = self._counts.get(bucket, 0) + 1
        self._sums[bucket] = self._sums.get(bucket, 0.0) + value


samples = st.lists(
    st.tuples(
        st.floats(0.0, 5000.0),
        st.one_of(
            st.booleans(),
            st.integers(-1000, 1000),
            st.floats(-1e9, 1e9, allow_nan=False),
        ),
    ),
    max_size=200,
)


def bits(table):
    return {bucket: (type(v), float(v).hex()) for bucket, v in table.items()}


@settings(max_examples=300, deadline=None)
@given(
    rows=samples,
    width=st.sampled_from([1.0, 7.5, 60.0, 3600.0]),
    window=st.tuples(st.floats(0.0, 5000.0), st.floats(0.0, 5000.0)),
)
def test_record_matches_the_get_version(rows, width, window):
    fast = BucketedSeries(width)
    slow = GetSeries(width)
    for now, value in rows:
        fast.record(now, value)
        slow.record(now, value)
    assert fast._counts == slow._counts
    assert list(fast._counts) == list(slow._counts)
    assert bits(fast._sums) == bits(slow._sums)
    assert fast.count == slow.count
    assert float(fast.sum).hex() == float(slow.sum).hex()
    assert float(fast.mean).hex() == float(slow.mean).hex()
    start, end = sorted(window)
    assert fast.samples_between(start, end) == slow.samples_between(
        start, end
    )
    assert float(fast.mean_between(start, end)).hex() == float(
        slow.mean_between(start, end)
    ).hex()
    assert fast.series() == slow.series()


#: Passes of 0/1 samples: (time, samples), each sample a bool or an int.
passes = st.lists(
    st.tuples(
        st.floats(0.0, 5000.0),
        st.lists(
            st.one_of(st.booleans(), st.sampled_from([0, 1])), max_size=70
        ),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(
    rows=passes,
    width=st.sampled_from([1.0, 7.5, 60.0, 3600.0]),
    window=st.tuples(st.floats(0.0, 5000.0), st.floats(0.0, 5000.0)),
)
def test_record_batch_matches_repeated_record(rows, width, window):
    batched = BucketedSeries(width)
    one_by_one = BucketedSeries(width)
    for now, samples in rows:
        batched.record_batch(now, len(samples), sum(samples))
        for value in samples:
            one_by_one.record(now, value)
    assert list(batched._counts.items()) == list(one_by_one._counts.items())
    assert list(bits(batched._sums).items()) == list(
        bits(one_by_one._sums).items()
    )
    assert batched.count == one_by_one.count
    assert float(batched.sum).hex() == float(one_by_one.sum).hex()
    assert float(batched.mean).hex() == float(one_by_one.mean).hex()
    start, end = sorted(window)
    assert batched.samples_between(start, end) == (
        one_by_one.samples_between(start, end)
    )
    assert float(batched.mean_between(start, end)).hex() == float(
        one_by_one.mean_between(start, end)
    ).hex()
    assert batched.series() == one_by_one.series()


def test_empty_batch_leaves_no_bucket():
    series = BucketedSeries(60.0)
    series.record_batch(30.0, 0, 0)
    assert series.series() == [] and series._sums == {}
    # Not even a sample time that no sample would check.
    series.record_batch(-1.0, 0, 0)
    assert series.count == 0
    with pytest.raises(ValueError, match="negative sample time"):
        series.record_batch(-1.0, 1, 0)
