"""Per-object prefetch recording against a per-attribute reference.

``AttributeAccessTracker.record_access`` counts one object's accessed
attributes in one call, and the server makes one call per object of a
request.  :class:`ReferenceTracker` counts one attribute at a time, the
way the server fed the tracker before, and recomputes everything from
its counts with no memo.  The property tests drive random request
streams, straight into the tracker and through ``DatabaseServer.serve``,
and after every request require equal access probabilities, thresholds
and prefetch sets for every client.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.granularity import CachingGranularity
from repro.core.prefetch import AttributeAccessTracker
from repro.net.message import RequestMessage
from repro.net.network import Network
from repro.oodb.database import build_default_database
from repro.oodb.objects import OID
from repro.oodb.schema import AttributeDef, ClassDef, default_root_schema
from repro.oodb.server import DatabaseServer
from repro.sim.environment import Environment

ROOT = default_root_schema().class_def("Root")
NAMES = ROOT.attribute_names
CLIENTS = (0, 1)
OBJECTS = 5


class ReferenceTracker:
    """Per-attribute counts; every answer recomputed from scratch."""

    def __init__(self, k_sigma: float, floor_at_uniform: bool) -> None:
        self.k_sigma = k_sigma
        self.floor_at_uniform = floor_at_uniform
        self.counts: dict[tuple[int, str], dict[str, int]] = {}

    def record(self, client_id: int, class_name: str, attribute: str) -> None:
        counts = self.counts.setdefault((client_id, class_name), {})
        counts[attribute] = counts.get(attribute, 0) + 1

    def access_probabilities(
        self, client_id: int, class_name: str
    ) -> dict[str, float]:
        counts = self.counts.get((client_id, class_name), {})
        total = sum(counts.values())
        if total == 0:
            return {}
        return {name: counts[name] / total for name in sorted(counts)}

    def threshold(self, client_id: int, class_def: ClassDef) -> float:
        probabilities = self.access_probabilities(client_id, class_def.name)
        values = [probabilities.get(n, 0.0) for n in class_def.attribute_names]
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        cutoff = mean - self.k_sigma * math.sqrt(variance)
        if self.floor_at_uniform:
            observed = sum(1 for v in values if v > 0.0) or len(values)
            cutoff = max(cutoff, 1.0 / observed)
        return cutoff

    def prefetch_set(self, client_id: int, class_def: ClassDef) -> set[str]:
        probabilities = self.access_probabilities(client_id, class_def.name)
        cutoff = self.threshold(client_id, class_def)
        return {n for n, p in probabilities.items() if p > cutoff}


def assert_same(tracker: AttributeAccessTracker, reference: ReferenceTracker):
    for client_id in CLIENTS:
        assert tracker.access_probabilities(
            client_id, "Root"
        ) == reference.access_probabilities(client_id, "Root")
        assert tracker.threshold(client_id, ROOT) == reference.threshold(
            client_id, ROOT
        )
        assert tracker.prefetch_set(client_id, ROOT) == reference.prefetch_set(
            client_id, ROOT
        )


settings_variants = st.tuples(
    st.sampled_from([0.0, 1.0, 2.0]), st.booleans()
)
# Names may repeat within one object: the skewed workloads touch an
# attribute several times per query, and each touch counts.
object_accesses = st.tuples(
    st.sampled_from(CLIENTS), st.lists(st.sampled_from(NAMES), max_size=8)
)


@settings(max_examples=60, deadline=None)
@given(variant=settings_variants, stream=st.lists(object_accesses, max_size=40))
def test_per_object_calls_match_per_attribute_counts(variant, stream):
    k_sigma, floor = variant
    tracker = AttributeAccessTracker(k_sigma=k_sigma, floor_at_uniform=floor)
    reference = ReferenceTracker(k_sigma, floor)
    for client_id, names in stream:
        tracker.record_access(client_id, "Root", tuple(names))
        for name in names:
            reference.record(client_id, "Root", name)
        assert_same(tracker, reference)


oids = st.integers(0, OBJECTS - 1).map(lambda n: OID("Root", n))
requests = st.tuples(
    st.sampled_from(CLIENTS),
    st.sampled_from(
        [
            CachingGranularity.ATTRIBUTE,
            CachingGranularity.HYBRID,
            CachingGranularity.OBJECT,
        ]
    ),
    st.dictionaries(
        oids, st.lists(st.sampled_from(NAMES), max_size=4), max_size=3
    ),
    st.lists(
        st.tuples(oids, st.one_of(st.none(), st.sampled_from(NAMES))),
        max_size=6,
    ),
)


@settings(max_examples=60, deadline=None)
@given(variant=settings_variants, stream=st.lists(requests, max_size=20))
def test_serve_records_what_the_requests_name(variant, stream):
    """Every needed and existent attribute counts once per listing,
    whether an object is on one list or both; object keys count
    nothing."""
    k_sigma, floor = variant
    env = Environment()
    server = DatabaseServer(
        env,
        build_default_database(OBJECTS),
        Network(env),
        prefetch_tracker=AttributeAccessTracker(
            k_sigma=k_sigma, floor_at_uniform=floor
        ),
    )
    reference = ReferenceTracker(k_sigma, floor)
    for query_id, (client_id, granularity, needed, existent) in enumerate(
        stream
    ):
        server.serve(
            RequestMessage(
                client_id=client_id,
                query_id=query_id,
                granularity=granularity,
                needed={oid: tuple(names) for oid, names in needed.items()},
                existent=tuple(existent),
            )
        )
        for oid, names in needed.items():
            for name in names:
                reference.record(client_id, oid.class_name, name)
        for oid, name in existent:
            if name is not None:
                reference.record(client_id, oid.class_name, name)
        assert_same(server.prefetch_tracker, reference)


LEAF = ClassDef("Leaf", [AttributeDef(name) for name in ("a0", "a1", "b0")])
CLASSES = (ROOT, LEAF)
class_oids = st.sampled_from(CLASSES).flatmap(
    lambda class_def: st.integers(0, OBJECTS - 1).map(
        lambda number: OID(class_def.name, number)
    )
)


def names_of(oid: OID) -> st.SearchStrategy[str]:
    class_def = ROOT if oid.class_name == "Root" else LEAF
    return st.sampled_from(class_def.attribute_names)


@st.composite
def accesses(draw):
    """One request's access picture: per needed object its names, and
    existent keys over the same objects, some object keys with no
    attribute, names free to repeat across both lists."""
    needed = {
        oid: tuple(draw(st.lists(names_of(oid), max_size=4)))
        for oid in draw(st.lists(class_oids, max_size=4))
    }
    existent = []
    for oid in draw(st.lists(class_oids, max_size=6)):
        existent.append(
            (oid, draw(st.one_of(st.none(), names_of(oid))))
        )
    return draw(st.sampled_from(CLIENTS)), needed, tuple(existent)


@settings(max_examples=80, deadline=None)
@given(variant=settings_variants, stream=st.lists(accesses(), max_size=20))
def test_per_class_calls_match_per_object_calls(variant, stream):
    """One ``record_access`` per class of a request leaves the same
    probabilities, thresholds and prefetch sets as one per object."""
    k_sigma, floor = variant
    per_object = AttributeAccessTracker(k_sigma=k_sigma, floor_at_uniform=floor)
    per_class = AttributeAccessTracker(k_sigma=k_sigma, floor_at_uniform=floor)
    for client_id, needed, existent in stream:
        by_object: dict[OID, list[str]] = {
            oid: list(names) for oid, names in needed.items() if names
        }
        for oid, name in existent:
            if name is not None:
                by_object.setdefault(oid, []).append(name)
        by_class: dict[str, list[str]] = {}
        for oid, names in by_object.items():
            per_object.record_access(client_id, oid.class_name, names)
            by_class.setdefault(oid.class_name, []).extend(names)
        for class_name, names in by_class.items():
            per_class.record_access(client_id, class_name, names)
        assert per_class.observed_classes() == per_object.observed_classes()
        for each_client in CLIENTS:
            for class_def in CLASSES:
                assert per_class.access_probabilities(
                    each_client, class_def.name
                ) == per_object.access_probabilities(each_client, class_def.name)
                assert per_class.threshold(
                    each_client, class_def
                ) == per_object.threshold(each_client, class_def)
                assert per_class.prefetch_set(
                    each_client, class_def
                ) == per_object.prefetch_set(each_client, class_def)


def test_bare_string_is_refused():
    tracker = AttributeAccessTracker()
    with pytest.raises(TypeError):
        tracker.record_access(0, "Root", "a0")
    assert tracker.access_probabilities(0, "Root") == {}
