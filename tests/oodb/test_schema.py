"""Unit tests for schema definitions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchemaError
from repro.oodb.schema import (
    AttributeDef,
    ClassDef,
    DEFAULT_ATTRIBUTE_SIZE,
    OBJECT_OVERHEAD_BYTES,
    Schema,
    default_root_schema,
)


def test_attribute_requires_positive_size():
    with pytest.raises(SchemaError):
        AttributeDef("a", size_bytes=0)


def test_relationship_requires_target():
    with pytest.raises(SchemaError):
        AttributeDef("r", is_relationship=True)


def test_primitive_rejects_target():
    with pytest.raises(SchemaError):
        AttributeDef("a", target_class="Root")


def test_class_rejects_duplicate_attributes():
    with pytest.raises(SchemaError):
        ClassDef("X", [AttributeDef("a"), AttributeDef("a")])


def test_class_rejects_empty_name():
    with pytest.raises(SchemaError):
        ClassDef("", [AttributeDef("a")])


def test_class_attribute_lookup():
    cls = ClassDef("X", [AttributeDef("a", size_bytes=10)])
    assert cls.attribute("a").size_bytes == 10
    with pytest.raises(SchemaError):
        cls.attribute("missing")


def test_object_size_includes_overhead():
    cls = ClassDef("X", [AttributeDef("a", size_bytes=100)])
    assert cls.object_size_bytes == OBJECT_OVERHEAD_BYTES + 100


def test_schema_rejects_duplicate_classes():
    cls = ClassDef("X", [AttributeDef("a")])
    with pytest.raises(SchemaError):
        Schema([cls, ClassDef("X", [AttributeDef("b")])])


def test_schema_validates_relationship_targets():
    bad = ClassDef(
        "X",
        [AttributeDef("r", is_relationship=True, target_class="Missing")],
    )
    with pytest.raises(SchemaError):
        Schema([bad])


def test_schema_class_lookup():
    schema = default_root_schema()
    assert schema.class_def("Root").name == "Root"
    with pytest.raises(SchemaError):
        schema.class_def("Nope")


class TestDefaultRootSchema:
    def test_attribute_counts(self):
        root = default_root_schema().class_def("Root")
        assert len(root.primitive_names) == 9
        assert len(root.relationship_names) == 3
        assert len(root.attribute_names) == 12

    def test_object_is_exactly_1024_bytes(self):
        """The paper: each object has a size of 1024 bytes."""
        root = default_root_schema().class_def("Root")
        assert root.object_size_bytes == 1024

    def test_relationships_point_at_root(self):
        root = default_root_schema().class_def("Root")
        for name in root.relationship_names:
            assert root.attribute(name).target_class == "Root"

    def test_custom_sizes(self):
        schema = default_root_schema(
            primitive_count=4, relationship_count=1, attribute_size=10
        )
        root = schema.class_def("Root")
        assert len(root.attribute_names) == 5
        assert root.object_size_bytes == OBJECT_OVERHEAD_BYTES + 50

    def test_default_attribute_size(self):
        root = default_root_schema().class_def("Root")
        assert root.attribute("a0").size_bytes == DEFAULT_ATTRIBUTE_SIZE


def assert_constants_match(schema):
    """Construction-time constants equal a fresh walk of ``attributes``."""
    sizes = {}
    for class_def in schema.classes.values():
        assert class_def.attribute_names == tuple(class_def.attributes)
        assert class_def.object_size_bytes == OBJECT_OVERHEAD_BYTES + sum(
            attribute.size_bytes for attribute in class_def.attributes.values()
        )
        for name, attribute in class_def.attributes.items():
            sizes[class_def.name, name] = attribute.size_bytes
    assert schema.attribute_sizes == sizes


def test_paper_schema_constants():
    assert_constants_match(default_root_schema())


@st.composite
def schemas(draw):
    """1–4 classes of 1–8 attributes; relationships target any class."""
    class_names = draw(
        st.lists(
            st.text("ABCXYZ", min_size=1, max_size=3),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    classes = []
    for class_name in class_names:
        names = draw(
            st.lists(
                st.text("abcr", min_size=1, max_size=3),
                min_size=1,
                max_size=8,
                unique=True,
            )
        )
        attributes = []
        for name in names:
            size = draw(st.integers(1, 500))
            target = draw(st.none() | st.sampled_from(class_names))
            attributes.append(
                AttributeDef(
                    name,
                    size_bytes=size,
                    is_relationship=target is not None,
                    target_class=target,
                )
            )
        classes.append(ClassDef(class_name, attributes))
    return Schema(classes)


@settings(max_examples=100, deadline=None)
@given(schema=schemas())
def test_random_schema_constants(schema):
    assert_constants_match(schema)
