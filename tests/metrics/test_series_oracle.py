"""``BucketedSeries.record`` against the ``dict.get`` version it replaced.

The fast ``record`` updates an existing bucket in place and stores
``0.0 + value`` for a bucket's first sample.  ``GetSeries`` keeps the
older body, which read both tables with ``get`` defaults on every
sample.  Fed the same samples (0/1 flags, bools, ints and floats),
both must hold the same counts, bit-identical sums and the same whole
and windowed means.
"""

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
