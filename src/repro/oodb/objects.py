"""Database objects with per-attribute versioning.

Versions are the ground truth the coherence *error oracle* compares
against: a client read of a cached value is an error when the server-side
version moved on after the value was fetched (Section 3.2 of the paper).
Object-level versions serve object caching; attribute-level versions serve
attribute and hybrid caching.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import SchemaError
from repro.oodb.schema import ClassDef

if t.TYPE_CHECKING:
    from repro.net.message import ReplyItem


class OID(t.NamedTuple):
    """A globally unique object identifier: (class name, number).

    OIDs key every hot dict and set on the serve and probe paths, so
    the identifier is a tuple: hashing, equality and ordering all run in
    C.  The hash is ``hash((class_name, number))`` and the order is
    field order, so sets, dicts and sorts behave as they would for the
    plain pair.  An OID compares equal to the tuple ``(class_name,
    number)``; no container mixes the two.
    """

    class_name: str
    number: int

    def __repr__(self) -> str:
        return f"{self.class_name}#{self.number}"


@dataclasses.dataclass(slots=True)
class AttributeState:
    """Server-side state of one attribute of one object.

    ``last_reply`` belongs to ``DatabaseServer.serve``, the only code
    that may read or write it: the last reply item built for this
    attribute, which ``serve`` reuses while it is still exact.
    One slot here, rather than an entry in a server-side dict, keeps the
    memo's memory to the item itself.  Servers sharing one database
    overwrite each other's item; that costs reuse, never exactness.
    """

    value: int
    version: int = 0
    last_write_time: float = 0.0
    last_reply: ReplyItem | None = dataclasses.field(
        default=None, repr=False, compare=False
    )


class DBObject:
    """One stored object: attribute values plus version bookkeeping."""

    __slots__ = ("oid", "class_def", "_attributes", "object_version",
                 "last_write_time")

    def __init__(
        self,
        oid: OID,
        class_def: ClassDef,
        values: t.Mapping[str, int],
    ) -> None:
        if oid.class_name != class_def.name:
            raise SchemaError(
                f"OID class {oid.class_name!r} != class {class_def.name!r}"
            )
        missing = set(class_def.attributes) - set(values)
        extra = set(values) - set(class_def.attributes)
        if missing or extra:
            raise SchemaError(
                f"object {oid} values mismatch schema: "
                f"missing={sorted(missing)} extra={sorted(extra)}"
            )
        self.oid = oid
        self.class_def = class_def
        self._attributes: dict[str, AttributeState] = {
            name: AttributeState(value) for name, value in values.items()
        }
        #: Bumped on every write to any attribute (object-level version).
        self.object_version = 0
        self.last_write_time = 0.0

    @classmethod
    def from_states(
        cls,
        oid: OID,
        class_def: ClassDef,
        states: dict[str, AttributeState],
    ) -> "DBObject":
        """An object over ready attribute states, built unchecked.

        For a builder that makes ``oid`` of ``class_def``'s class and
        one state per attribute of ``class_def``; every other caller
        goes through ``DBObject(...)``, which checks both.
        """
        obj = cls.__new__(cls)
        obj.oid = oid
        obj.class_def = class_def
        obj._attributes = states
        obj.object_version = 0
        obj.last_write_time = 0.0
        return obj

    def __repr__(self) -> str:
        return f"<DBObject {self.oid} v{self.object_version}>"

    @property
    def size_bytes(self) -> int:
        return self.class_def.object_size_bytes

    def attribute_state(self, name: str) -> AttributeState:
        try:
            return self._attributes[name]
        except KeyError:
            raise SchemaError(
                f"object {self.oid} has no attribute {name!r}"
            ) from None

    @property
    def attribute_states(self) -> t.Mapping[str, AttributeState]:
        """Every attribute's state by name, for a caller that reads
        many in a row; :meth:`attribute_state` names the error for an
        unknown one."""
        return self._attributes

    def read(self, name: str) -> int:
        """Current value of attribute ``name``."""
        return self.attribute_state(name).value

    def version_of(self, name: str) -> int:
        """Current version of attribute ``name``."""
        return self.attribute_state(name).version

    def write(self, name: str, value: int, now: float) -> None:
        """Overwrite attribute ``name``, bumping both version levels."""
        state = self.attribute_state(name)
        state.value = value
        state.version += 1
        state.last_write_time = now
        self.object_version += 1
        self.last_write_time = now

    def related_oid(self, name: str) -> OID:
        """Resolve relationship ``name`` to the OID it references.

        Relationship values encode the target object number directly.
        """
        attribute = self.class_def.attribute(name)
        if not attribute.is_relationship:
            raise SchemaError(
                f"{self.class_def.name}.{name} is not a relationship"
            )
        assert attribute.target_class is not None
        return OID(attribute.target_class, self.read(name))
