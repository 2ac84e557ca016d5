"""Unit tests for DBObject versioning and the database builder."""

import pytest

from repro.errors import QueryError, SchemaError
from repro.oodb.database import Database, build_default_database
from repro.oodb.objects import DBObject, OID
from repro.oodb.schema import AttributeDef, ClassDef, default_root_schema
from repro.sim.rand import RandomStream


def make_object(number=0):
    cls = ClassDef(
        "X",
        [
            AttributeDef("a"),
            AttributeDef("r", is_relationship=True, target_class="X"),
        ],
    )
    return DBObject(OID("X", number), cls, {"a": 5, "r": 1})


class TestDBObject:
    def test_read_write_roundtrip(self):
        obj = make_object()
        assert obj.read("a") == 5
        obj.write("a", 9, now=3.0)
        assert obj.read("a") == 9

    def test_write_bumps_both_version_levels(self):
        obj = make_object()
        assert obj.version_of("a") == 0
        assert obj.object_version == 0
        obj.write("a", 1, now=1.0)
        assert obj.version_of("a") == 1
        assert obj.object_version == 1
        obj.write("r", 0, now=2.0)
        assert obj.version_of("a") == 1  # untouched attribute
        assert obj.version_of("r") == 1
        assert obj.object_version == 2

    def test_write_records_time(self):
        obj = make_object()
        obj.write("a", 1, now=42.0)
        assert obj.attribute_state("a").last_write_time == 42.0
        assert obj.last_write_time == 42.0

    def test_unknown_attribute_rejected(self):
        obj = make_object()
        with pytest.raises(SchemaError):
            obj.read("zzz")

    def test_values_must_match_schema(self):
        cls = ClassDef("X", [AttributeDef("a")])
        with pytest.raises(SchemaError):
            DBObject(OID("X", 0), cls, {})
        with pytest.raises(SchemaError):
            DBObject(OID("X", 0), cls, {"a": 1, "b": 2})

    def test_oid_class_must_match(self):
        cls = ClassDef("X", [AttributeDef("a")])
        with pytest.raises(SchemaError):
            DBObject(OID("Y", 0), cls, {"a": 1})

    def test_related_oid_resolution(self):
        obj = make_object()
        assert obj.related_oid("r") == OID("X", 1)

    def test_related_oid_rejects_primitive(self):
        obj = make_object()
        with pytest.raises(SchemaError):
            obj.related_oid("a")


class TestDatabase:
    def test_add_and_get(self):
        schema = default_root_schema()
        database = build_default_database(10, schema=schema)
        oid = OID("Root", 3)
        assert oid in database
        assert database.get(oid).oid == oid

    def test_get_missing_raises(self):
        database = build_default_database(5)
        with pytest.raises(QueryError):
            database.get(OID("Root", 99))

    def test_duplicate_add_rejected(self):
        schema = default_root_schema()
        database = Database(schema)
        obj = build_default_database(3, schema=schema).get(OID("Root", 0))
        database.add(obj)
        with pytest.raises(SchemaError):
            database.add(obj)

    def test_oids_sorted_and_filtered(self):
        database = build_default_database(5)
        oids = database.oids("Root")
        assert list(oids) == sorted(oids)
        assert len(oids) == 5
        assert database.oids("Missing") == ()


class TestDefaultDatabaseBuilder:
    def test_paper_population(self):
        database = build_default_database()
        assert len(database) == 2000
        assert database.total_size_bytes == 2000 * 1024

    def test_relationships_never_self_reference(self):
        database = build_default_database(50)
        for obj in database.objects():
            for name in obj.class_def.relationship_names:
                target = obj.related_oid(name)
                assert target != obj.oid
                assert target in database

    def test_deterministic_given_seed(self):
        a = build_default_database(20, rng=RandomStream(5, "db"))
        b = build_default_database(20, rng=RandomStream(5, "db"))
        for oid in a.oids():
            for name in a.get(oid).class_def.attribute_names:
                assert a.get(oid).read(name) == b.get(oid).read(name)

    def test_requires_two_objects(self):
        with pytest.raises(SchemaError):
            build_default_database(1)
