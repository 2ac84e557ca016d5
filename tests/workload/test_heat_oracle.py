"""Heat set-up and picks against standalone references.

The heat distributions sample hot *positions* (or place a window of
them), keep the hot objects, read each cold draw through a map of those
positions instead of a cold bucket, and make every randomized pick
through one shared distinct-pick loop.  The references below share no
code with them: each sorts the population, samples the OIDs themselves,
hashes every OID against the sampled set, and keeps its own copy of the
hot/cold draw, the scan cursor walk and Cyclic's ``randint`` loop.
Given the same seed, both must build the same hot set, make the same
picks across CSH re-selections, hotspot shifts and scan cursors, and
leave their random streams in step.  The Zipf reference draws OIDs where
the production code draws ranks.  Hot sets placed at the population's
ends, with one cold or one hot object, and populations above the drawn
300 exercise the cold-position map at its edges.
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
    ZipfHeat,
)

QUERIES = 50


def draw_hot_cold(rng, population, hot, cold, probability, count):
    """The hot/cold rejection loop as SH first had it."""
    chosen, picks = set(), []
    attempts = 0
    while len(picks) < count:
        attempts += 1
        if attempts > 50 * count:
            remaining = [o for o in population if o not in chosen]
            picks.extend(remaining[: count - len(picks)])
            break
        bucket = hot if rng.bernoulli(probability) else cold
        candidate = bucket[rng.randint(0, len(bucket) - 1)]
        if candidate not in chosen:
            chosen.add(candidate)
            picks.append(candidate)
    return picks


class ReferenceSkewed:
    """SH, or CSH when ``change_every`` is given, or the scan pattern
    when ``scan_every`` is given."""

    def __init__(
        self, oids, rng, hot_fraction, hot_access_probability,
        change_every=None, scan_every=None,
    ):
        self.ordered = sorted(oids)
        self.rng = rng
        self.hot_fraction = hot_fraction
        self.probability = hot_access_probability
        self.change_every = change_every
        self.scan_every = scan_every
        self.era = 0
        self.cursor = 0
        self.reselect()

    def reselect(self):
        hot_count = max(1, round(self.hot_fraction * len(self.ordered)))
        hot = set(self.rng.sample(list(self.ordered), hot_count))
        self.hot = [oid for oid in self.ordered if oid in hot]
        self.cold = [oid for oid in self.ordered if oid not in hot]

    def select_objects(self, query_index, count):
        if self.change_every is not None:
            era = query_index // self.change_every
            if era != self.era:
                self.era = era
                self.reselect()
        if self.scan_every is not None and query_index % self.scan_every == 0:
            picks, chosen = [], set()
            while len(picks) < count:
                candidate = self.ordered[self.cursor]
                self.cursor = (self.cursor + 1) % len(self.ordered)
                if candidate not in chosen:
                    chosen.add(candidate)
                    picks.append(candidate)
            return picks
        return draw_hot_cold(
            self.rng, self.ordered, self.hot, self.cold, self.probability,
            count,
        )


class ReferenceHotspot:
    """The hotspot with index-set buckets and a cumulative start."""

    def __init__(
        self, oids, rng, shift_every, hot_fraction, hot_access_probability
    ):
        self.ordered = sorted(oids)
        self.rng = rng
        self.shift_every = shift_every
        self.probability = hot_access_probability
        self.hot_count = max(1, round(hot_fraction * len(self.ordered)))
        self.step = max(1, self.hot_count // 2)
        self.start = rng.randint(0, len(self.ordered) - 1)
        self.era = 0
        self.rebuild()

    def rebuild(self):
        n = len(self.ordered)
        hot_indices = {
            (self.start + offset) % n for offset in range(self.hot_count)
        }
        self.hot = [
            oid for index, oid in enumerate(self.ordered)
            if index in hot_indices
        ]
        self.cold = [
            oid for index, oid in enumerate(self.ordered)
            if index not in hot_indices
        ]

    def select_objects(self, query_index, count):
        era = query_index // self.shift_every
        if era != self.era:
            self.start = (
                self.start + self.step * (era - self.era)
            ) % len(self.ordered)
            self.era = era
            self.rebuild()
        return draw_hot_cold(
            self.rng, self.ordered, self.hot, self.cold, self.probability,
            count,
        )


class ReferenceCyclic:
    """Cyclic with sampled OIDs, its own cursor walk and randint loop."""

    def __init__(self, oids, rng, hot_fraction, scan_fraction):
        self.ordered = sorted(oids)
        self.rng = rng
        hot_count = max(1, round(hot_fraction * len(self.ordered)))
        self.hot = sorted(rng.sample(self.ordered, hot_count))
        self.scan_fraction = scan_fraction
        self.cursor = 0

    def select_objects(self, query_index, count):
        scan_quota = round(self.scan_fraction * count)
        picks, chosen = [], set()
        while len(picks) < scan_quota:
            candidate = self.ordered[self.cursor]
            self.cursor = (self.cursor + 1) % len(self.ordered)
            if candidate not in chosen:
                chosen.add(candidate)
                picks.append(candidate)
        attempts = 0
        while len(picks) < count:
            attempts += 1
            if attempts > 50 * count:
                remaining = [o for o in self.ordered if o not in chosen]
                picks.extend(remaining[: count - len(picks)])
                break
            candidate = self.hot[self.rng.randint(0, len(self.hot) - 1)]
            if candidate not in chosen:
                chosen.add(candidate)
                picks.append(candidate)
        return picks


class ReferenceZipf:
    """Zipf with its own weights and its own rejection loop over OIDs."""

    hot = ()

    def __init__(self, oids, rng, s):
        self.ranked = rng.sample(sorted(oids), len(oids))
        self.rng = rng
        self.cumulative = []
        total = 0.0
        for rank in range(1, len(oids) + 1):
            total += rank ** -s
            self.cumulative.append(total)

    def select_objects(self, query_index, count):
        picks, chosen = [], set()
        attempts = 0
        while len(picks) < count:
            attempts += 1
            if attempts > 50 * count:
                remaining = [o for o in self.ranked if o not in chosen]
                picks.extend(remaining[: count - len(picks)])
                break
            candidate = self.ranked[self.rng.weighted_index(self.cumulative)]
            if candidate not in chosen:
                chosen.add(candidate)
                picks.append(candidate)
        return picks


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


def assume_both_buckets(population, hot_fraction):
    # A hot set of the whole population is rejected at construction.
    assume(max(1, round(hot_fraction * len(population))) < len(population))


def assert_same_run(make_new, make_reference, seed, count):
    """Same hot sets, same picks, and the streams still in step."""
    new_rng = RandomStream(seed, "h")
    reference_rng = RandomStream(seed, "h")
    new = make_new(new_rng)
    reference = make_reference(reference_rng)
    for query_index in range(QUERIES):
        assert new.hot_set == frozenset(reference.hot)
        assert new.select_objects(query_index, count) == (
            reference.select_objects(query_index, count)
        )
    assert new.hot_set == frozenset(reference.hot)
    assert new_rng.random() == reference_rng.random()


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
    skew = (hot_fraction, hot_access_probability)
    assert_same_run(
        lambda rng: SkewedHeat(population, rng, *skew),
        lambda rng: ReferenceSkewed(population, rng, *skew),
        seed,
        count,
    )
    assert_same_run(
        lambda rng: ChangingSkewedHeat(population, rng, change_every, *skew),
        lambda rng: ReferenceSkewed(
            population, rng, *skew, change_every=change_every
        ),
        seed,
        count,
    )


@settings(max_examples=40, deadline=None)
@given(**common, every=st.integers(1, 20))
def test_scan_and_hotspot_match(
    population, seed, hot_fraction, hot_access_probability, count, every,
):
    assume_both_buckets(population, hot_fraction)
    count = min(count, len(population))
    skew = (hot_fraction, hot_access_probability)
    assert_same_run(
        lambda rng: SequentialScanHeat(population, rng, every, *skew),
        lambda rng: ReferenceSkewed(population, rng, *skew, scan_every=every),
        seed,
        count,
    )
    assert_same_run(
        lambda rng: ShiftingHotspotHeat(population, rng, every, *skew),
        lambda rng: ReferenceHotspot(population, rng, every, *skew),
        seed,
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
    assume_both_buckets(population, hot_fraction)
    # Queries may ask for more than the hot set holds: both sides then
    # finish with the unchosen objects in OID order.
    count = min(count, len(population))
    assert_same_run(
        lambda rng: CyclicHeat(population, rng, hot_fraction, scan_fraction),
        lambda rng: ReferenceCyclic(
            population, rng, hot_fraction, scan_fraction
        ),
        seed,
        count,
    )


@settings(max_examples=40, deadline=None)
@given(
    population=populations(),
    seed=st.integers(0, 2**32 - 1),
    s=st.floats(0.1, 6.0),
    count=st.integers(1, 12),
)
def test_zipf_matches(population, seed, s, count):
    # Steep exponents on small populations reach the rank-order fallback.
    count = min(count, len(population))
    assert_same_run(
        lambda rng: ZipfHeat(population, rng, s),
        lambda rng: ReferenceZipf(population, rng, s),
        seed,
        count,
    )


def assert_placed_buckets_match(population, positions, seed, probability):
    """SH with its hot set placed at the ascending ``positions`` against
    the reference holding the two buckets as lists."""
    new_rng = RandomStream(seed, "h")
    reference_rng = RandomStream(seed, "h")
    new = SkewedHeat(population, new_rng, 0.2, probability)
    reference = ReferenceSkewed(population, reference_rng, 0.2, probability)
    placed = set(positions)
    new._place_hot_set(positions)
    reference.hot = [o for i, o in enumerate(population) if i in placed]
    reference.cold = [o for i, o in enumerate(population) if i not in placed]
    assert new.hot_set == frozenset(reference.hot)
    count = min(3, len(population))
    for query_index in range(QUERIES):
        assert new.select_objects(query_index, count) == (
            reference.select_objects(query_index, count)
        )
    assert new_rng.random() == reference_rng.random()
    # Cold-only single picks reach every cold object and no hot one.
    cold_only = SkewedHeat(population, RandomStream(seed, "c"), 0.2, 0.0)
    cold_only._place_hot_set(positions)
    drawn = {
        cold_only.select_objects(query_index, 1)[0]
        for query_index in range(40 * len(reference.cold))
    }
    assert drawn == set(reference.cold)


def ordered_population(n):
    return tuple(OID("Root", number) for number in range(n))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 40),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    probability=st.floats(0.0, 1.0),
)
def test_hot_sets_at_the_edges(n, data, seed, probability):
    """Hot objects at both ends, one cold object, one hot object."""
    alone = data.draw(st.integers(0, n - 1))
    for positions in (
        [0, n - 1],
        [i for i in range(n) if i != alone],
        [alone],
    ):
        assert_placed_buckets_match(
            ordered_population(n), positions, seed, probability
        )


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(301, 2500),
    seed=st.integers(0, 2**32 - 1),
    hot_fraction=st.floats(0.01, 0.99),
    hot_access_probability=st.floats(0.0, 1.0),
    every=st.integers(1, 20),
)
def test_large_populations_match(
    n, seed, hot_fraction, hot_access_probability, every
):
    population = ordered_population(n)
    skew = (hot_fraction, hot_access_probability)
    assert_same_run(
        lambda rng: ChangingSkewedHeat(population, rng, every, *skew),
        lambda rng: ReferenceSkewed(
            population, rng, *skew, change_every=every
        ),
        seed,
        12,
    )
    assert_same_run(
        lambda rng: ShiftingHotspotHeat(population, rng, every, *skew),
        lambda rng: ReferenceHotspot(population, rng, every, *skew),
        seed,
        12,
    )
