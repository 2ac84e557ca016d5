"""``build_default_database`` against the per-value ``randint`` builder.

The real builder draws each value with the loop ``Random._randbelow``
runs, on the generator's bound ``getrandbits``, and builds its objects
without the per-object schema checks.  :func:`reference_build` is the
obvious form it replaced: one ``RandomStream.randint`` call per value and
one checked ``DBObject(...)`` plus ``Database.add`` per object.  Over
drawn seeds, object counts and attribute layouts, both must give the
same OIDs in the same order, the same value, version and write time for
every attribute, the same object versions, and leave the stream in the
same state.  Small counts exercise the self-skip (``target >= number``
moves up by one) hardest: at two objects, object 0 must point at 1 and
object 1 at 0.
"""

from hypothesis import example, given, settings, strategies as st

from repro.oodb.database import Database, build_default_database
from repro.oodb.objects import DBObject, OID
from repro.oodb.schema import (
    AttributeDef,
    ClassDef,
    Schema,
    default_root_schema,
)
from repro.sim.rand import RandomStream


def reference_build(
    object_count: int, rng: RandomStream, schema: Schema
) -> Database:
    """The builder as it was: ``randint`` per value, checked objects."""
    class_def = schema.class_def("Root")
    database = Database(schema)
    for number in range(object_count):
        values: dict[str, int] = {}
        for name, attribute in class_def.attributes.items():
            if attribute.is_relationship:
                target = rng.randint(0, object_count - 2)
                if target >= number:  # never self-reference
                    target += 1
                values[name] = target
            else:
                values[name] = rng.randint(0, 1_000_000)
        database.add(DBObject(OID("Root", number), class_def, values))
    return database


def root_schema(layout: tuple[bool, ...]) -> Schema:
    """A ``Root`` class with one attribute per entry of ``layout``
    (``True``: a relationship to ``Root``)."""
    return Schema([
        ClassDef(
            "Root",
            [
                AttributeDef(
                    f"x{index}",
                    size_bytes=8,
                    is_relationship=is_relationship,
                    target_class="Root" if is_relationship else None,
                )
                for index, is_relationship in enumerate(layout)
            ],
        )
    ])


def contents(database: Database) -> list[tuple]:
    return [
        (
            obj.oid,
            obj.class_def.name,
            obj.object_version,
            obj.last_write_time,
            [
                (name, state.value, state.version, state.last_write_time)
                for name, state in obj.attribute_states.items()
            ],
        )
        for obj in database.objects()
    ]


def assert_twins(seed: int, object_count: int, schema: Schema | None) -> None:
    fast_rng = RandomStream(seed, "database")
    slow_rng = RandomStream(seed, "database")
    fast = build_default_database(object_count, rng=fast_rng, schema=schema)
    slow = reference_build(
        object_count, slow_rng, schema or default_root_schema()
    )
    assert list(fast.oids()) == list(slow.oids())
    assert contents(fast) == contents(slow)
    assert fast_rng._rng.getstate() == slow_rng._rng.getstate()
    # The self-skip at both ends: the first object can only point up,
    # the last only down.
    for number in (0, object_count - 1):
        obj = fast.get(OID("Root", number))
        for name in obj.class_def.relationship_names:
            assert obj.related_oid(name) != obj.oid


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    object_count=st.integers(min_value=2, max_value=3000),
)
@example(seed=42, object_count=2)
@example(seed=42, object_count=3)
@example(seed=7, object_count=3000)
def test_default_schema_matches_reference(seed, object_count):
    assert_twins(seed, object_count, schema=None)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    object_count=st.integers(min_value=2, max_value=300),
    layout=st.lists(st.booleans(), min_size=1, max_size=12).map(tuple),
)
@example(seed=0, object_count=2, layout=(True, True, True))
@example(seed=0, object_count=2, layout=(False,))
def test_any_root_layout_matches_reference(seed, object_count, layout):
    assert_twins(seed, object_count, schema=root_schema(layout))


def test_two_objects_point_at_each_other():
    database = build_default_database(2, rng=RandomStream(3, "database"))
    for number in (0, 1):
        obj = database.get(OID("Root", number))
        for name in obj.class_def.relationship_names:
            assert obj.related_oid(name) == OID("Root", 1 - number)
