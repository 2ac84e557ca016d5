"""The named-tuple OID against a twin of the frozen dataclass it replaced.

:class:`OID` is a ``NamedTuple`` so that hashing, equality and ordering
run in C.  :class:`DataclassOID` keeps the earlier definition: a frozen,
ordered dataclass that cached ``hash((class_name, number))``.  On random
populations both must hash alike, sort alike, print alike, give sets of
cache keys the same iteration order and encode alike in traces — which
is what keeps every simulated outcome and trace byte-identical.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.obs.sinks import jsonify
from repro.oodb.objects import OID


@dataclasses.dataclass(frozen=True, order=True)
class DataclassOID:
    class_name: str
    number: int

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.class_name, self.number)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.class_name}#{self.number}"


def fields(oid):
    return (oid.class_name, oid.number)


populations = st.lists(
    st.tuples(
        st.sampled_from(["Root", "A", "B", "Flight"]),
        st.integers(-5, 100_000),
    ),
    min_size=1,
    max_size=200,
)
key_sequences = st.lists(
    st.tuples(st.integers(0, 199), st.sampled_from(["a0", "a1", "r2", None])),
    max_size=300,
)


@settings(max_examples=200, deadline=None)
@given(pairs=populations)
def test_hash_order_and_text_match(pairs):
    new = [OID(name, number) for name, number in pairs]
    old = [DataclassOID(name, number) for name, number in pairs]
    assert [hash(oid) for oid in new] == [hash(oid) for oid in old]
    assert [fields(oid) for oid in sorted(new)] == [
        fields(oid) for oid in sorted(old)
    ]
    assert [repr(oid) for oid in new] == [repr(oid) for oid in old]
    assert [str(oid) for oid in new] == [str(oid) for oid in old]
    assert [repr((oid, "a0")) for oid in new] == [
        repr((oid, "a0")) for oid in old
    ]


@settings(max_examples=200, deadline=None)
@given(pairs=populations, keys=key_sequences)
def test_key_sets_iterate_in_the_same_order(pairs, keys):
    new_keys, old_keys = set(), set()
    for index, attribute in keys:
        name, number = pairs[index % len(pairs)]
        new_keys.add((OID(name, number), attribute))
        old_keys.add((DataclassOID(name, number), attribute))
    assert [(fields(oid), a) for oid, a in new_keys] == [
        (fields(oid), a) for oid, a in old_keys
    ]


@given(pairs=populations)
def test_trace_encoding_matches(pairs):
    for name, number in pairs:
        new, old = OID(name, number), DataclassOID(name, number)
        assert jsonify(new) == jsonify(old) == f"{name}#{number}"
        assert jsonify((new, "a")) == jsonify((old, "a"))
        assert jsonify((new, None)) == [f"{name}#{number}", None]


def test_trace_encoding_examples():
    assert jsonify(OID("Root", 3)) == "Root#3"
    assert jsonify((OID("Root", 3), "a")) == ["Root#3", "a"]
