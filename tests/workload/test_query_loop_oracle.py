"""The one-loop query generator against the per-object code it replaced.

``QueryWorkload.next_query`` draws a query in one loop over its
objects: each pick is ``bisect_right`` over one bound ``random()``
draw, and the ``AttributeAccess`` tuples are built as the update coins
fall.  ``ReferenceQueryWorkload`` below is the generator before that
change: per object it called ``_pick_primitives`` (through
``RandomStream.weighted_index``), ``_pick_relationship`` under NQ and
``_apply_updates``, each with its own intermediate lists.

Hypothesis draws the query kind, U (zero or in (0, 1]), the attributes
per object (one up to every primitive), the selectivity, every heat
pattern and attribute skews down to ones so steep that the 50 x count
fallback finishes most objects' picks.  Both generators share one
database and start from equal streams; they must produce the same
accesses in the same order, and leave the query and heat streams in
the same state.
"""

import functools

from hypothesis import given, settings, strategies as st

from repro.oodb.database import build_default_database
from repro.oodb.objects import OID
from repro.oodb.query import AttributeAccess, Query, QueryKind
from repro.sim.rand import RandomStream, cumulative
from repro.workload.heat import (
    ChangingSkewedHeat,
    CyclicHeat,
    SequentialScanHeat,
    ShiftingHotspotHeat,
    SkewedHeat,
    UniformHeat,
    ZipfHeat,
)
from repro.workload.queries import QueryWorkload, skewed_weights

#: Enough for the cyclic heat: its hot set (a fifth) must hold every
#: non-scan pick of a query.
OBJECTS = 200

#: Every heat pattern, with short periods so re-picks, scans and shifts
#: happen within a drawn stream.
HEATS = {
    "SH": lambda oids, rng: SkewedHeat(oids, rng),
    "CSH": lambda oids, rng: ChangingSkewedHeat(oids, rng, change_every=4),
    "cyclic": lambda oids, rng: CyclicHeat(oids, rng),
    "uniform": lambda oids, rng: UniformHeat(oids, rng),
    "scan": lambda oids, rng: SequentialScanHeat(oids, rng, scan_every=3),
    "zipf": lambda oids, rng: ZipfHeat(oids, rng),
    "hotspot": lambda oids, rng: ShiftingHotspotHeat(
        oids, rng, shift_every=3
    ),
}


class ReferenceQueryWorkload:
    """``QueryWorkload``'s generation as it was before the one-loop
    rewrite."""

    def __init__(
        self,
        client_id,
        database,
        heat,
        rng,
        kind,
        selectivity,
        attrs_per_object,
        update_probability,
        attribute_skew,
    ):
        self.client_id = client_id
        self.database = database
        self.heat = heat
        self.kind = kind
        self.selectivity = selectivity
        self.update_probability = update_probability
        self._rng = rng
        class_def = database.schema.class_def("Root")
        self._primitives = class_def.primitive_names
        self._relationships = class_def.relationship_names
        self.attrs_per_object = attrs_per_object
        self._ranked_primitives = list(self._primitives)
        rng.shuffle(self._ranked_primitives)
        self._primitive_cumweights = cumulative(
            skewed_weights(len(self._primitives), attribute_skew)
        )
        self._ranked_relationships = list(self._relationships)
        rng.shuffle(self._ranked_relationships)
        self._relationship_cumweights = cumulative(
            skewed_weights(len(self._relationships), attribute_skew)
        )
        self._queries_generated = 0

    def _pick_primitives(self, count):
        ranked = self._ranked_primitives
        cumweights = self._primitive_cumweights
        weighted_index = self._rng.weighted_index
        limit = 50 * count
        picks = []
        chosen = set()
        attempts = 0
        while len(picks) < count:
            attempts += 1
            if attempts > limit:
                for rank in range(len(ranked)):
                    if rank not in chosen:
                        chosen.add(rank)
                        picks.append(ranked[rank])
                        if len(picks) == count:
                            break
                break
            rank = weighted_index(cumweights)
            if rank not in chosen:
                chosen.add(rank)
                picks.append(ranked[rank])
        return picks

    def _pick_relationship(self):
        rank = self._rng.weighted_index(self._relationship_cumweights)
        return self._ranked_relationships[rank]

    def next_query(self, query_id):
        index = self._queries_generated
        self._queries_generated += 1
        selected = self.heat.select_objects(index, self.selectivity)
        count = self.attrs_per_object
        navigational = self.kind is QueryKind.NAVIGATIONAL
        accesses = []
        for oid in selected:
            touched = [(oid, name) for name in self._pick_primitives(count)]
            if navigational:
                relationship = self._pick_relationship()
                touched.append((oid, relationship))
                target = self.database.get(oid).related_oid(relationship)
                touched.extend(
                    (target, name) for name in self._pick_primitives(count)
                )
            accesses += self._apply_updates(touched)
        return Query(query_id, self.client_id, self.kind, accesses)

    def _apply_updates(self, touched):
        probability = self.update_probability
        if probability <= 0.0:
            return [AttributeAccess(oid, name) for oid, name in touched]
        random = self._rng.random
        updated = {}
        for oid, __ in touched:
            if oid not in updated:
                updated[oid] = random() < probability
        return [
            AttributeAccess(oid, name, updated[oid]) for oid, name in touched
        ]


@functools.lru_cache(maxsize=None)
def database():
    return build_default_database(OBJECTS, rng=RandomStream(3, "database"))


def build(cls, seed, heat, **fields):
    rng = RandomStream(seed, "client-0")
    heat_rng = rng.fork("heat")
    query_rng = rng.fork("queries")
    db = database()
    workload = cls(
        client_id=0,
        database=db,
        heat=HEATS[heat](db.oids("Root"), heat_rng),
        rng=query_rng,
        **fields,
    )
    return workload, heat_rng, query_rng


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    kind=st.sampled_from(list(QueryKind)),
    update_probability=st.one_of(
        st.just(0.0), st.floats(min_value=1e-9, max_value=1.0)
    ),
    attrs_per_object=st.integers(1, 9),
    selectivity=st.integers(1, 20),
    attribute_skew=st.one_of(
        st.sampled_from([1e-300, 1e-12, 0.01]),
        st.floats(min_value=0.05, max_value=1.0),
    ),
    heat=st.sampled_from(sorted(HEATS)),
    queries=st.integers(1, 12),
)
def test_one_loop_matches_the_reference(
    seed,
    kind,
    update_probability,
    attrs_per_object,
    selectivity,
    attribute_skew,
    heat,
    queries,
):
    fields = dict(
        kind=kind,
        selectivity=selectivity,
        attrs_per_object=attrs_per_object,
        update_probability=update_probability,
        attribute_skew=attribute_skew,
    )
    fast, fast_heat, fast_rng = build(QueryWorkload, seed, heat, **fields)
    slow, slow_heat, slow_rng = build(
        ReferenceQueryWorkload, seed, heat, **fields
    )
    for query_id in range(queries):
        got = fast.next_query(query_id)
        want = slow.next_query(query_id)
        assert (got.query_id, got.client_id, got.kind) == (
            want.query_id,
            want.client_id,
            want.kind,
        )
        assert len(got.accesses) == len(want.accesses)
        for access, expected in zip(got.accesses, want.accesses):
            assert type(access) is AttributeAccess
            assert type(access.oid) is OID
            assert access == expected
            assert type(access.is_update) is bool
    assert fast_rng._rng.getstate() == slow_rng._rng.getstate()
    assert fast_heat._rng.getstate() == slow_heat._rng.getstate()


def test_steep_skew_reaches_the_fallback():
    """At a skew of 1e-300 every weight past the first underflows to
    zero or is too small to draw, so an object's second pick can only
    come from the fallback, which takes the untaken ranks in
    popularity order."""
    fast, __, __ = build(
        QueryWorkload,
        11,
        "SH",
        kind=QueryKind.ASSOCIATIVE,
        selectivity=4,
        attrs_per_object=3,
        update_probability=0.0,
        attribute_skew=1e-300,
    )
    ranked = fast._ranked_primitives
    query = fast.next_query(0)
    for position in range(0, len(query.accesses), 3):
        names = [a.attribute for a in query.accesses[position : position + 3]]
        assert names == ranked[:3]
