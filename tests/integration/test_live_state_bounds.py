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
