"""OODB schema definitions.

The paper's simulated database has a single class ``Root`` whose objects
carry 9 primitive-valued attributes and 3 one-to-one relationships, for a
total object size of 1024 bytes (Section 4).  The schema layer is general
enough to express richer databases (the ATIS example application defines
its own classes), while :func:`default_root_schema` builds the paper's.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import SchemaError

#: Fixed per-object overhead (header, OID, class tag) in bytes.  Chosen so
#: that 12 attributes of :data:`DEFAULT_ATTRIBUTE_SIZE` bytes plus overhead
#: equal the paper's 1024-byte object.
OBJECT_OVERHEAD_BYTES = 64
#: Size of one attribute value (primitive or relationship reference).
DEFAULT_ATTRIBUTE_SIZE = 80


@dataclasses.dataclass(frozen=True)
class AttributeDef:
    """One attribute of a class: a primitive value or a relationship."""

    name: str
    size_bytes: int = DEFAULT_ATTRIBUTE_SIZE
    is_relationship: bool = False
    #: Class the relationship points at (``None`` for primitives).
    target_class: str | None = None

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise SchemaError(
                f"attribute {self.name!r} must have positive size"
            )
        if self.is_relationship and self.target_class is None:
            raise SchemaError(
                f"relationship {self.name!r} needs a target class"
            )
        if not self.is_relationship and self.target_class is not None:
            raise SchemaError(
                f"primitive attribute {self.name!r} cannot have a target"
            )


class ClassDef:
    """A class: an ordered collection of attribute definitions.

    A class is fixed once built: nothing adds, removes or resizes an
    attribute afterwards.  The attribute names and the object size are
    therefore computed here once, not on every access.
    """

    def __init__(self, name: str, attributes: t.Sequence[AttributeDef]) -> None:
        if not name:
            raise SchemaError("class name must be non-empty")
        seen: set[str] = set()
        for attribute in attributes:
            if attribute.name in seen:
                raise SchemaError(
                    f"duplicate attribute {attribute.name!r} in class {name!r}"
                )
            seen.add(attribute.name)
        self.name = name
        self.attributes: dict[str, AttributeDef] = {
            attribute.name: attribute for attribute in attributes
        }
        self.attribute_names: tuple[str, ...] = tuple(
            attribute.name for attribute in attributes
        )
        #: Total stored size of one object of this class.
        self.object_size_bytes: int = OBJECT_OVERHEAD_BYTES + sum(
            attribute.size_bytes for attribute in attributes
        )

    def __repr__(self) -> str:
        return f"<ClassDef {self.name!r} attrs={len(self.attributes)}>"

    @property
    def primitive_names(self) -> list[str]:
        return [
            name
            for name, attribute in self.attributes.items()
            if not attribute.is_relationship
        ]

    @property
    def relationship_names(self) -> list[str]:
        return [
            name
            for name, attribute in self.attributes.items()
            if attribute.is_relationship
        ]

    def attribute(self, name: str) -> AttributeDef:
        try:
            return self.attributes[name]
        except KeyError:
            raise SchemaError(
                f"class {self.name!r} has no attribute {name!r}"
            ) from None


class Schema:
    """A set of classes forming a database schema."""

    def __init__(self, classes: t.Sequence[ClassDef]) -> None:
        seen: set[str] = set()
        for class_def in classes:
            if class_def.name in seen:
                raise SchemaError(f"duplicate class {class_def.name!r}")
            seen.add(class_def.name)
        self.classes: dict[str, ClassDef] = {
            class_def.name: class_def for class_def in classes
        }
        #: ``(class name, attribute) -> size in bytes`` for every
        #: attribute of every class, read once per access by every
        #: client; one shared table, not one per client.
        self.attribute_sizes: dict[tuple[str, str], int] = {
            (class_def.name, name): class_def.attributes[name].size_bytes
            for class_def in classes
            for name in class_def.attribute_names
        }
        self._validate_relationships()

    def _validate_relationships(self) -> None:
        for class_def in self.classes.values():
            for attribute in class_def.attributes.values():
                if (
                    attribute.is_relationship
                    and attribute.target_class not in self.classes
                ):
                    raise SchemaError(
                        f"{class_def.name}.{attribute.name} targets unknown "
                        f"class {attribute.target_class!r}"
                    )

    def __repr__(self) -> str:
        return f"<Schema classes={sorted(self.classes)}>"

    def class_def(self, name: str) -> ClassDef:
        try:
            return self.classes[name]
        except KeyError:
            raise SchemaError(f"unknown class {name!r}") from None


def default_root_schema(
    primitive_count: int = 9,
    relationship_count: int = 3,
    attribute_size: int = DEFAULT_ATTRIBUTE_SIZE,
) -> Schema:
    """The paper's schema: one class ``Root``.

    9 primitive attributes ``a0``..``a8`` and 3 one-to-one relationships
    ``r0``..``r2`` back to ``Root``; with the default sizes one object is
    exactly 1024 bytes.
    """
    attributes = [
        AttributeDef(f"a{i}", size_bytes=attribute_size)
        for i in range(primitive_count)
    ]
    attributes += [
        AttributeDef(
            f"r{i}",
            size_bytes=attribute_size,
            is_relationship=True,
            target_class="Root",
        )
        for i in range(relationship_count)
    ]
    return Schema([ClassDef("Root", attributes)])
