"""Heat set-up by index against the set-membership construction it replaced.

The heat distributions split their population into hot and cold buckets
by sampling *positions* and masking (or slicing) the OID-ordered
population.  The references below keep the older construction: sort
the population, sample the OIDs themselves, and hash every OID against
the sampled set.  Given the same seed, both must build the same buckets
and then make the same picks, across CSH re-selections, hotspot shifts
and scan cursors.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.oodb.objects import OID
from repro.sim.rand import RandomStream
from repro.workload.heat import (
    ChangingSkewedHeat,
    CyclicHeat,
    SequentialScanHeat,
    ShiftingHotspotHeat,
    SkewedHeat,
)

QUERIES = 50


class _SetMembershipBuckets:
    """SkewedHeat's reselection before index masks."""

    def reselect_hot_set(self):
        ordered = sorted(self._oids)
        hot_count = max(1, round(self.hot_fraction * len(self._oids)))
        hot = set(self._rng.sample(list(self._oids), hot_count))
        self._hot = [oid for oid in ordered if oid in hot]
        self._cold = [oid for oid in ordered if oid not in hot]


class ReferenceSkewed(_SetMembershipBuckets, SkewedHeat):
    pass


class ReferenceChanging(_SetMembershipBuckets, ChangingSkewedHeat):
    pass


class ReferenceScan(_SetMembershipBuckets, SequentialScanHeat):
    def select_objects(self, query_index, count):
        if query_index % self.scan_every != 0:
            return super().select_objects(query_index, count)
        ordered = sorted(self._oids)
        picks, chosen = [], set()
        while len(picks) < count:
            candidate = ordered[self._cursor]
            self._cursor = (self._cursor + 1) % len(ordered)
            if candidate not in chosen:
                chosen.add(candidate)
                picks.append(candidate)
        return picks


class ReferenceHotspot(ShiftingHotspotHeat):
    def _rebuild_buckets(self):
        ordered = sorted(self._ordered)
        n = len(ordered)
        hot_indices = {
            (self._start + offset) % n for offset in range(self._hot_count)
        }
        self._hot = [
            oid for index, oid in enumerate(ordered) if index in hot_indices
        ]
        self._cold = [
            oid
            for index, oid in enumerate(ordered)
            if index not in hot_indices
        ]


class ReferenceCyclic(CyclicHeat):
    def __init__(self, oids, rng, hot_fraction=0.2, scan_fraction=0.3):
        self._all = sorted(oids)
        self._rng = rng
        hot_count = max(1, round(hot_fraction * len(self._all)))
        self._hot = sorted(rng.sample(self._all, hot_count))
        self.scan_fraction = scan_fraction
        self._cursor = 0


@st.composite
def populations(draw):
    """2–300 distinct OIDs over two classes, in OID order."""
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from("AB"), st.integers(0, 5000)),
            min_size=2,
            max_size=300,
            unique=True,
        )
    )
    return tuple(sorted(OID(name, number) for name, number in keys))


def buckets(heat):
    return list(heat._hot), list(getattr(heat, "_cold", ()))


def assume_both_buckets(population, hot_fraction):
    # An empty cold bucket fails the first cold draw in both versions.
    assume(max(1, round(hot_fraction * len(population))) < len(population))


def assert_same_run(new, reference, count):
    assert buckets(new) == buckets(reference)
    for query_index in range(QUERIES):
        assert new.select_objects(query_index, count) == (
            reference.select_objects(query_index, count)
        )
        assert buckets(new) == buckets(reference)


common = {
    "population": populations(),
    "seed": st.integers(0, 2**32 - 1),
    "hot_fraction": st.floats(0.01, 0.99),
    "hot_access_probability": st.floats(0.0, 1.0),
    "count": st.integers(1, 12),
}


@settings(max_examples=40, deadline=None)
@given(**common, change_every=st.integers(1, 20))
def test_skewed_and_changing_match(
    population, seed, hot_fraction, hot_access_probability, count,
    change_every,
):
    assume_both_buckets(population, hot_fraction)
    count = min(count, len(population))
    skew = {
        "hot_fraction": hot_fraction,
        "hot_access_probability": hot_access_probability,
    }
    assert_same_run(
        SkewedHeat(population, RandomStream(seed, "h"), **skew),
        ReferenceSkewed(population, RandomStream(seed, "h"), **skew),
        count,
    )
    assert_same_run(
        ChangingSkewedHeat(
            population, RandomStream(seed, "h"), change_every, **skew
        ),
        ReferenceChanging(
            population, RandomStream(seed, "h"), change_every, **skew
        ),
        count,
    )


@settings(max_examples=40, deadline=None)
@given(**common, every=st.integers(1, 20))
def test_scan_and_hotspot_match(
    population, seed, hot_fraction, hot_access_probability, count, every,
):
    assume_both_buckets(population, hot_fraction)
    count = min(count, len(population))
    skew = {
        "hot_fraction": hot_fraction,
        "hot_access_probability": hot_access_probability,
    }
    assert_same_run(
        SequentialScanHeat(population, RandomStream(seed, "h"), every, **skew),
        ReferenceScan(population, RandomStream(seed, "h"), every, **skew),
        count,
    )
    assert_same_run(
        ShiftingHotspotHeat(
            population, RandomStream(seed, "h"), every, **skew
        ),
        ReferenceHotspot(population, RandomStream(seed, "h"), every, **skew),
        count,
    )


@settings(max_examples=40, deadline=None)
@given(
    population=populations(),
    seed=st.integers(0, 2**32 - 1),
    hot_fraction=st.floats(0.01, 0.99),
    scan_fraction=st.floats(0.0, 1.0),
    count=st.integers(1, 12),
)
def test_cyclic_matches(population, seed, hot_fraction, scan_fraction, count):
    hot_count = max(1, round(hot_fraction * len(population)))
    # Cyclic picks loop until they find enough distinct hot objects, so
    # a query may ask for at most the hot set's size.
    count = min(count, hot_count)
    assert_same_run(
        CyclicHeat(
            population, RandomStream(seed, "h"), hot_fraction, scan_fraction
        ),
        ReferenceCyclic(
            population, RandomStream(seed, "h"), hot_fraction, scan_fraction
        ),
        count,
    )
