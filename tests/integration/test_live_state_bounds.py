"""A run's retained state follows its resident cache, not its length.

Three stores used to grow with every access or write:

* a policy's score heap kept stale records below a key that stayed on
  top; every store of stamped entries (the heaps and the young FIFO of
  the scored policies) now rebuilds past two entries per live record
  plus ``COMPACTION_SLACK``.  Each policy declares these stores through
  ``lazy_stores()``, and a policy that declares none cannot pass the
  bound by default;
* each policy record for a resident key pinned its own copy of an
  equal ``(oid, attribute)`` tuple; the cache now hands the policy the
  key object it stores;
* the server logged every write for invalidation reports, also under
  refresh-time coherence, where no broadcaster ever prunes the log.

Two per-client stores grew with the database or the query instead:

* every SH-family heat kept a cold bucket of the whole population
  outside its hot set; a heat now holds its hot set and a map of the
  hot positions, and shares the database's OID tuple;
* a lossy client's in-flight round held a ``(key, attribute size)``
  tuple, and a key tuple, per deferred miss; it now holds the query's
  own accesses.

The report digests below were computed before the write log became
IR-only, so they pin that IR runs broadcast exactly what they did.
"""

import hashlib
from collections import deque

import pytest

from repro import SimulationConfig
from repro.core.replacement import available_policies, create_policy
from repro.core.replacement.base import COMPACTION_SLACK
from repro.experiments.runner import Simulation
from repro.oodb.objects import OID
from repro.oodb.query import AttributeAccess

GRANULARITIES = ("AC", "OC", "HC", "PC", "NC")

#: Every policy with a lazily pruned store.
HEAP_POLICIES = ("ewma-0.5", "mean", "window-10", "lrd", "lru-3", "lrfu-0.001")


def is_entry(value):
    """A stamped store entry: (score, stamp, record)."""
    return (
        isinstance(value, tuple)
        and len(value) == 3
        and isinstance(value[1], int)
        and isinstance(value[2], list)
    )


def score_heaps(policy):
    """Every store of stamped entries the policy keeps.

    Drives the policy so that each store the scored policies keep holds
    an entry: two keys accessed once (EWMA's knee heap), an eviction
    after the first one's knee (EWMA's drift heap) and a new young key
    (the young FIFO).  Then any list or deque attribute holding only
    stamped entries is a store.
    """
    first, second, third = ((OID("Root", n), None) for n in range(3))
    policy.on_admit(first, 0.0)
    policy.on_admit(second, 0.0)
    policy.on_access(first, 1.0)
    policy.on_access(second, 10.0)
    policy.evict(5.0)
    policy.on_admit(third, 5.0)
    return [
        value
        for value in vars(policy).values()
        if isinstance(value, (list, deque))
        and value
        and all(is_entry(entry) for entry in value)
    ]


@pytest.mark.parametrize("policy", HEAP_POLICIES)
def test_heap_policies_declare_their_stores(policy):
    assert create_policy(policy).lazy_stores()


@pytest.mark.parametrize("name", available_policies())
def test_every_score_heap_is_declared(name):
    """A policy that gains a score heap must declare it, and be run by
    the bound test below: the declared record counts are the sizes of
    the stores found."""
    policy = create_policy(name)
    heaps = score_heaps(policy)
    assert sorted(len(heap) for heap in heaps) == sorted(
        records for records, __ in policy.lazy_stores().values()
    )
    if heaps:
        assert type(policy) in {
            type(create_policy(spec)) for spec in HEAP_POLICIES
        }


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_refresh_time_runs_log_no_writes(granularity):
    sim = Simulation(
        SimulationConfig(
            granularity=granularity,
            update_probability=0.3,
            horizon_hours=0.5,
        )
    )
    sim.run()
    assert sim.server.updates_applied > 0
    assert len(sim.server.write_log) == 0


def broadcast_digest(granularity):
    sim = Simulation(
        SimulationConfig(
            granularity=granularity,
            coherence="invalidation-report",
            ir_interval_seconds=500.0,
            update_probability=0.3,
            horizon_hours=1.0,
        )
    )
    reports = []
    deliver = sim.server._broadcast_report

    def capture(report):
        reports.append(report)
        deliver(report)

    sim.server._broadcast_report = capture
    sim.run()
    listed = repr([(r.sequence, r.broadcast_at, r.keys) for r in reports])
    return (
        len(reports),
        sum(len(r.keys) for r in reports),
        hashlib.sha256(listed.encode()).hexdigest(),
    )


@pytest.mark.parametrize(
    "granularity, expected",
    [
        (
            "OC",  # object keys
            (
                7,
                1959,
                "ae411c9781a2e984846e7a59f3c3f790"
                "e89ce5202dcaed45cec7f3f22e1fd6d1",
            ),
        ),
        (
            "HC",  # attribute keys
            (
                7,
                6295,
                "7e2a5229028789655149cfe35b2aafc2"
                "db8926a52048654ed7be328921475924",
            ),
        ),
    ],
)
def test_invalidation_reports_are_unchanged(granularity, expected):
    assert broadcast_digest(granularity) == expected


@pytest.mark.parametrize("policy", HEAP_POLICIES)
def test_policy_heaps_are_bounded_and_share_cached_keys(policy):
    sim = Simulation(
        SimulationConfig(replacement=policy, horizon_hours=0.5)
    )
    sim.run()
    checked = 0
    for client in sim.clients:
        cache = client.cache
        stored = {key: key for key in cache.keys()}
        stores = cache.policy.lazy_stores()
        assert stores
        for records, live in stores.values():
            assert records <= 2 * live + COMPACTION_SLACK
        # The very object the cache stores, not an equal tuple built for
        # the access that scored it.
        for key, held in held_keys(cache.policy):
            assert held is stored[key]
            checked += 1
    assert checked > 1000


def held_keys(policy):
    """(key, an object a policy holds for it): each resident key's
    record is filed under a key object and names one."""
    for key, record in getattr(policy, "_records", {}).items():
        yield key, key
        yield key, record[1]


@pytest.mark.parametrize("heat", ("SH", "CSH", "scan", "hotspot", "cyclic"))
def test_heat_holds_no_container_beyond_its_hot_set(heat):
    """Apart from the database's shared OID tuple, a heat distribution
    holds nothing longer than its hot set, across re-selections."""
    sim = Simulation(
        SimulationConfig(
            heat=heat,
            num_clients=3,
            csh_change_every=10,
            hotspot_shift_every=10,
        )
    )
    shared = sim.database.oids("Root")
    hot_count = round(sim.config.hot_fraction * len(shared))
    for client in sim.clients:
        distribution = client.workload.heat
        for query_index in range(50):
            distribution.select_objects(query_index, 5)
        assert len(distribution.hot_set) == hot_count
        assert distribution._oids is shared
        sizes = [
            len(value)
            for value in vars(distribution).values()
            if value is not shared and hasattr(value, "__len__")
        ]
        assert sizes
        assert max(sizes) <= hot_count


def test_deferred_misses_are_the_querys_own_accesses():
    sim = Simulation(
        SimulationConfig(
            num_clients=20,
            horizon_hours=0.2,
            loss_rate=0.05,
            request_timeout_seconds=20.0,
            retry_budget=2,
        )
    )
    probes = []
    for client in sim.clients:

        def capture(query, connected, probe=client._probe):
            result = probe(query, connected)
            probes.append((query, result.deferred))
            return result

        client._probe = capture
    sim.run()
    deferred = 0
    for query, accesses in probes:
        own = {id(access) for access in query.accesses}
        for access in accesses:
            assert type(access) is AttributeAccess
            assert id(access) in own
        deferred += len(accesses)
    assert deferred > 100
