"""Query generation's fast draws and access tuples against slow twins.

Each twin below is a test-local copy of the code the fast path
replaced:

* ``weighted_index`` was a hand-written binary search; it is now
  ``bisect_right`` over the same single ``random()`` draw, clamped to
  the last index;
* the hot/cold draw picked ``bucket[randint(0, n - 1)]``; it now calls
  ``choice(bucket)``, which makes the same ``_randbelow(n)`` call;
* ``AttributeAccess`` was a frozen dataclass; it is now a
  ``NamedTuple`` with the same fields, equality and hash.

Two streams with the same seed, one driven through each side, must
return the same values and stay in step afterwards.
"""

import dataclasses
import itertools

from hypothesis import given, settings, strategies as st

from repro.oodb.objects import OID
from repro.oodb.query import AttributeAccess, Query, QueryKind
from repro.sim.rand import RandomStream


def loop_weighted_index(stream, cumulative_weights):
    """``RandomStream.weighted_index`` before bisect."""
    total = cumulative_weights[-1]
    target = stream.random() * total
    low, high = 0, len(cumulative_weights) - 1
    while low < high:
        mid = (low + high) // 2
        if cumulative_weights[mid] <= target:
            low = mid + 1
        else:
            high = mid
    return low


@dataclasses.dataclass(frozen=True)
class DataclassAccess:
    """``AttributeAccess`` as the frozen dataclass it was."""

    oid: OID
    attribute: str
    is_update: bool = False

    @property
    def item(self):
        return (self.oid, self.attribute)


weights = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    ),
    min_size=1,
    max_size=2000,
)


@settings(max_examples=200, deadline=None)
@given(weights=weights, seed=st.integers(0, 2**32), draws=st.integers(1, 30))
def test_weighted_index_matches_the_loop(weights, seed, draws):
    cumulative_weights = list(itertools.accumulate(weights))
    fast = RandomStream(seed, "w")
    slow = RandomStream(seed, "w")
    for __ in range(draws):
        assert fast.weighted_index(cumulative_weights) == (
            loop_weighted_index(slow, cumulative_weights)
        )
    assert fast.random() == slow.random()


def test_weighted_index_keeps_the_last_index_for_a_zero_total():
    # The clamp: with every weight zero the target equals the total, and
    # bisect alone would return one past the end.
    stream = RandomStream(5, "w")
    assert stream.weighted_index([0.0, 0.0, 0.0]) == 2
    assert loop_weighted_index(RandomStream(5, "w"), [0.0, 0.0, 0.0]) == 2


def test_weighted_index_skips_zero_weight_entries():
    twin = RandomStream(9, "w")
    stream = RandomStream(9, "w")
    cumulative_weights = [0.0, 1.0, 1.0, 1.0, 3.0, 3.0]
    for __ in range(200):
        index = stream.weighted_index(cumulative_weights)
        assert index in (1, 4)
        assert index == loop_weighted_index(twin, cumulative_weights)


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(1, 5000),
    seed=st.integers(0, 2**32),
    draws=st.integers(1, 30),
)
def test_choice_matches_randint_indexing(size, seed, draws):
    bucket = list(range(size))
    fast = RandomStream(seed, "bucket")
    slow = RandomStream(seed, "bucket")
    for __ in range(draws):
        assert fast.choice(bucket) == bucket[slow.randint(0, size - 1)]
    assert fast.random() == slow.random()


accesses = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.sampled_from(["a0", "a1", "a2", "r0"]),
        st.booleans(),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(rows=accesses)
def test_access_tuple_matches_the_dataclass(rows):
    fast = [AttributeAccess(OID("Root", n), a, u) for n, a, u in rows]
    slow = [DataclassAccess(OID("Root", n), a, u) for n, a, u in rows]
    assert AttributeAccess._fields == tuple(
        field.name for field in dataclasses.fields(DataclassAccess)
    )
    for new, old in zip(fast, slow):
        assert (new.oid, new.attribute, new.is_update) == (
            old.oid,
            old.attribute,
            old.is_update,
        )
        assert new.item == old.item
        assert hash(new) == hash(old)
    for (i, new_a), (j, new_b) in itertools.product(
        enumerate(fast), repeat=2
    ):
        assert (new_a == new_b) == (slow[i] == slow[j])
    fast_query = Query(0, 0, QueryKind.ASSOCIATIVE, fast)
    slow_query = Query(0, 0, QueryKind.ASSOCIATIVE, slow)
    assert fast_query.updates() == slow_query.updates()
    assert list(fast_query.updates()) == list(slow_query.updates())
    assert fast_query.oids() == slow_query.oids()
    assert fast_query.has_updates == slow_query.has_updates


def test_access_defaults_to_a_read():
    access = AttributeAccess(OID("Root", 1), "a0")
    twin = DataclassAccess(OID("Root", 1), "a0")
    assert access.is_update is twin.is_update is False
    assert hash(access) == hash(twin)
