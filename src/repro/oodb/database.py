"""The database container and the paper's default database builder."""

from __future__ import annotations

import typing as t

from repro.errors import QueryError, SchemaError
from repro.oodb.objects import AttributeState, DBObject, OID
from repro.oodb.schema import Schema, default_root_schema
from repro.sim.rand import RandomStream

#: Database population used throughout the paper's evaluation.
DEFAULT_OBJECT_COUNT = 2000


class Database:
    """All objects of a schema, indexed by OID."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._objects: dict[OID, DBObject] = {}
        #: Memoized sorted OID listings keyed by class filter; every
        #: client's heat distribution asks for the same listing at setup,
        #: so the sort must not be repeated per client.  Invalidated on
        #: :meth:`add`.
        self._oid_cache: dict[str | None, tuple[OID, ...]] = {}

    def __repr__(self) -> str:
        return f"<Database objects={len(self._objects)}>"

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, oid: OID) -> bool:
        return oid in self._objects

    def add(self, obj: DBObject) -> None:
        if obj.oid in self._objects:
            raise SchemaError(f"duplicate object {obj.oid}")
        if obj.class_def.name not in self.schema.classes:
            raise SchemaError(
                f"object {obj.oid} has class outside this schema"
            )
        self._objects[obj.oid] = obj
        self._oid_cache.clear()

    def get(self, oid: OID) -> DBObject:
        try:
            return self._objects[oid]
        except KeyError:
            raise QueryError(f"no such object: {oid}") from None

    def oids(self, class_name: str | None = None) -> tuple[OID, ...]:
        """All OIDs, optionally restricted to one class (sorted, stable).

        The listing is memoized and shared, not copied: every client's
        heat distribution holds the same tuple, so a fleet pays for one
        sort and one sequence, not one per client.
        """
        cached = self._oid_cache.get(class_name)
        if cached is None:
            if class_name is None:
                selected: t.Iterable[OID] = self._objects
            else:
                selected = (
                    oid
                    for oid in self._objects
                    if oid.class_name == class_name
                )
            cached = self._oid_cache[class_name] = tuple(sorted(selected))
        return cached

    def objects(self) -> t.Iterable[DBObject]:
        return self._objects.values()

    @property
    def total_size_bytes(self) -> int:
        return sum(obj.size_bytes for obj in self._objects.values())


def build_default_database(
    object_count: int = DEFAULT_OBJECT_COUNT,
    rng: RandomStream | None = None,
    schema: Schema | None = None,
) -> Database:
    """Create the paper's database: ``object_count`` ``Root`` objects.

    Primitive attributes get arbitrary integer tokens; each relationship
    points at a uniformly random *other* object so navigational queries
    always have somewhere to go.

    Each value is what ``rng.randint`` would draw, in the same order:
    ``randint(0, m - 1)`` is ``Random._randbelow(m)``, which draws
    ``getrandbits(m.bit_length())`` until the draw is below ``m``.  The
    loop runs here, on the generator's bound ``getrandbits``, so a
    value costs no Python frame, and the stream ends in the state the
    per-value calls leave.  The class is checked against the schema
    once (``schema.class_def``), and each object's values are built for
    exactly its class's attributes, so the objects skip the per-object
    checks of ``DBObject(...)``.
    ``tests/oodb/test_database_builder_twin.py`` compares the build
    with the per-value ``randint`` builder.
    """
    if object_count < 2:
        raise SchemaError("need at least two objects for relationships")
    rng = rng or RandomStream(seed=0, label="database")
    schema = schema or default_root_schema()
    class_def = schema.class_def("Root")
    plan = [
        (name, attribute.is_relationship)
        for name, attribute in class_def.attributes.items()
    ]
    getrandbits = rng.raw_getrandbits
    # A relationship draws below n - 1 and skips its own number; a
    # primitive value draws on [0, 1_000_000].
    targets = object_count - 1
    target_bits = targets.bit_length()
    tokens = 1_000_001
    token_bits = tokens.bit_length()
    database = Database(schema)
    objects = database._objects
    for number in range(object_count):
        states: dict[str, AttributeState] = {}
        for name, is_relationship in plan:
            if is_relationship:
                value = getrandbits(target_bits)
                while value >= targets:
                    value = getrandbits(target_bits)
                if value >= number:  # never self-reference
                    value += 1
            else:
                value = getrandbits(token_bits)
                while value >= tokens:
                    value = getrandbits(token_bits)
            states[name] = AttributeState(value)
        oid = OID(class_def.name, number)
        objects[oid] = DBObject.from_states(oid, class_def, states)
    return database
