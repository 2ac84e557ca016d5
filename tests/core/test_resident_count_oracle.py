"""The cache's per-object resident count against a filter over its keys.

``ClientStorageCache.resident_count`` keeps, per OID, how many of the
object's keys are resident, so the client can skip a needed object with
nothing cached instead of probing each of its attributes.  The property
test drives random admit / evict-by-pressure / invalidate / clear
sequences under every granularity's key shape and several policies,
and after every step compares the count of every object with the keys
the cache actually holds.
"""

from hypothesis import event, given, settings, strategies as st

from repro.core.granularity import CachingGranularity
from repro.core.replacement import create_policy
from repro.core.storage_cache import ClientStorageCache
from repro.oodb.objects import OID

OIDS = [OID("Root", n) for n in range(6)] + [OID("Other", 0)]
ATTRIBUTES = ("a0", "a1", "a2", "r0")
#: Admission filters (TinyLFU), scored, recency and frequency policies.
POLICIES = ("lru", "ewma-0.5", "tinylfu-adaptive", "lrfu-0.001", "random-5")


def reference_count(cache: ClientStorageCache, oid: OID) -> int:
    return sum(1 for key_oid, __ in cache.keys() if key_oid == oid)


def assert_counts_exact(cache: ClientStorageCache) -> None:
    for oid in OIDS:
        assert cache.resident_count(oid) == reference_count(cache, oid), oid
    cache.check_invariants()


#: Mostly admits, so the cache fills and evicts by pressure; a clear
#: now and then starts it over.
operations = st.lists(
    st.tuples(
        st.sampled_from(("admit",) * 6 + ("invalidate",) * 2 + ("clear",)),
        st.sampled_from(OIDS),
        st.sampled_from(ATTRIBUTES),
        # Sizes against a 400-byte cache.
        st.integers(10, 160),
    ),
    min_size=10,
    max_size=120,
)


@settings(max_examples=80, deadline=None)
@given(
    granularity=st.sampled_from(list(CachingGranularity)),
    spec=st.sampled_from(POLICIES),
    steps=operations,
)
def test_resident_count_matches_keys(granularity, spec, steps):
    cache = ClientStorageCache(400, create_policy(spec))
    clock = 0.0
    evictions = 0
    for op, oid, attribute, size in steps:
        clock += 1.0
        if op == "clear":
            cache.clear(clock)
            assert_counts_exact(cache)
            continue
        key = (oid, None) if granularity.caches_objects else (oid, attribute)
        if op == "admit":
            evictions += len(
                cache.admit(key, 0, 0, size, now=clock, expires_at=clock + 5.0)
            )
        else:
            cache.invalidate(key, now=clock)
        assert_counts_exact(cache)
    event(f"evicted: {evictions > 0}")


def test_count_follows_eviction_and_refresh():
    cache = ClientStorageCache(300, create_policy("lru"))
    first, second = OIDS[0], OIDS[1]
    cache.admit((first, "a0"), 0, 0, 100, now=0.0, expires_at=9.0)
    cache.admit((first, "a1"), 0, 0, 100, now=1.0, expires_at=9.0)
    # A refresh of a resident key does not count it twice.
    cache.admit((first, "a0"), 1, 1, 100, now=2.0, expires_at=9.0)
    assert cache.resident_count(first) == 2
    cache.admit((second, "a0"), 0, 0, 100, now=3.0, expires_at=9.0)
    # Pressure evicts the least recent key, ``first.a1``.
    cache.admit((second, "a1"), 0, 0, 100, now=4.0, expires_at=9.0)
    assert cache.resident_count(first) == 1
    assert cache.resident_count(second) == 2
    cache.invalidate((first, "a0"), now=5.0)
    assert cache.resident_count(first) == 0
    cache.clear(now=6.0)
    assert cache.resident_count(second) == 0
    cache.check_invariants()
