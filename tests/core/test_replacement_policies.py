"""Behavioural contracts for every replacement policy."""

import pytest

from repro.core.replacement import (
    CMSAdmissionLRUPolicy,
    ClockPolicy,
    EWMAPolicy,
    FIFOPolicy,
    LRDPolicy,
    LRFUPolicy,
    LRUKPolicy,
    LRUPolicy,
    MeanPolicy,
    RandomPolicy,
    WTinyLFUPolicy,
    WindowPolicy,
    available_policies,
    create_policy,
)
from repro.errors import ReplacementError
from repro.oodb.objects import OID


def key(n, attr=None):
    return (OID("Root", n), attr)


def histories(policy):
    """Every access history an LRU-k policy retains, residents' and
    ghosts', as key -> list of access times."""
    retained = {key: list(record[2]) for key, record in policy._records.items()}
    retained.update(
        (ghost, list(history)) for ghost, history in policy._ghosts.items()
    )
    return retained


ALL_POLICY_FACTORIES = [
    LRUPolicy,
    lambda: LRUKPolicy(2),
    lambda: LRUKPolicy(3),
    LRDPolicy,
    MeanPolicy,
    lambda: WindowPolicy(5),
    lambda: EWMAPolicy(0.5),
    ClockPolicy,
    FIFOPolicy,
    lambda: RandomPolicy(seed=1),
    WTinyLFUPolicy,
    lambda: WTinyLFUPolicy(adaptive=True),
    CMSAdmissionLRUPolicy,
    LRFUPolicy,
]


@pytest.fixture(params=ALL_POLICY_FACTORIES)
def policy(request):
    return request.param()


class TestGenericContract:
    """Every policy must honour the shared interface contract."""

    def test_starts_empty(self, policy):
        assert len(policy) == 0
        assert key(0) not in policy

    def test_admit_makes_resident(self, policy):
        policy.on_admit(key(1), 0.0)
        assert key(1) in policy
        assert len(policy) == 1

    def test_double_admit_rejected(self, policy):
        policy.on_admit(key(1), 0.0)
        with pytest.raises(ReplacementError):
            policy.on_admit(key(1), 1.0)

    def test_access_of_absent_key_rejected(self, policy):
        with pytest.raises(ReplacementError):
            policy.on_access(key(1), 0.0)

    def test_remove_of_absent_key_rejected(self, policy):
        with pytest.raises(ReplacementError):
            policy.remove(key(1))

    def test_evict_empty_rejected(self, policy):
        with pytest.raises(ReplacementError):
            policy.evict(0.0)

    def test_evict_returns_resident_and_removes_it(self, policy):
        for n in range(5):
            policy.on_admit(key(n), float(n))
        victim = policy.evict(10.0)
        assert victim not in policy
        assert len(policy) == 4

    def test_remove_then_evict_never_returns_removed(self, policy):
        for n in range(5):
            policy.on_admit(key(n), float(n))
        policy.remove(key(2))
        evicted = [policy.evict(10.0) for __ in range(4)]
        assert key(2) not in evicted
        assert sorted(k[0].number for k in evicted) == [0, 1, 3, 4]

    def test_full_drain(self, policy):
        for n in range(8):
            policy.on_admit(key(n), float(n))
            if n % 2 == 0:
                policy.on_access(key(n), float(n) + 0.5)
        victims = set()
        for __ in range(8):
            victims.add(policy.evict(100.0))
        assert len(victims) == 8
        assert len(policy) == 0


class TestLRU:
    def test_evicts_least_recently_used(self):
        policy = LRUPolicy()
        for n in range(3):
            policy.on_admit(key(n), float(n))
        policy.on_access(key(0), 10.0)
        assert policy.evict(11.0) == key(1)
        assert policy.evict(11.0) == key(2)
        assert policy.evict(11.0) == key(0)

    def test_spec_string(self):
        assert create_policy("lru").name == "lru"
        assert create_policy("lru-1").name == "lru"
        assert create_policy("lru-3").name == "lru-3"


class TestLRUK:
    def test_requires_positive_k(self):
        with pytest.raises(ValueError):
            LRUKPolicy(0)

    def test_keys_with_insufficient_history_evicted_first(self):
        policy = LRUKPolicy(2)
        policy.on_admit(key(1), 0.0)  # one access only
        policy.on_admit(key(2), 1.0)
        policy.on_access(key(2), 2.0)  # two accesses
        assert policy.evict(3.0) == key(1)

    def test_among_insufficient_history_lru_breaks_tie(self):
        policy = LRUKPolicy(3)
        policy.on_admit(key(1), 0.0)
        policy.on_admit(key(2), 1.0)
        assert policy.evict(2.0) == key(1)

    def test_evicts_oldest_kth_access(self):
        policy = LRUKPolicy(2)
        # key 1: accesses at 0, 10 -> k-distance anchor 0
        # key 2: accesses at 5, 6  -> k-distance anchor 5
        policy.on_admit(key(1), 0.0)
        policy.on_admit(key(2), 5.0)
        policy.on_access(key(2), 6.0)
        policy.on_access(key(1), 10.0)
        assert policy.evict(11.0) == key(1)

    def test_readmitted_ghost_is_keyed_by_the_admitted_key(self):
        policy = LRUKPolicy(2)
        policy.on_admit(key(1), 0.0)
        assert policy.evict(1.0) == key(1)
        admitted = key(1)
        policy.on_admit(admitted, 2.0)
        assert not policy._ghosts
        (history_key,) = policy._records
        assert history_key is admitted
        assert policy._records[admitted][1] is admitted
        assert histories(policy) == {admitted: [0.0, 2.0]}

    def test_trim_drops_oldest_ghosts_and_keeps_residents(self):
        """Past ``MAX_GHOSTS`` histories, the older half of the ghosts
        by (last access, key) goes; resident keys keep theirs."""
        policy = LRUKPolicy(2)
        policy.MAX_GHOSTS = 6
        for n, now in ((0, 0.0), (3, 1.0), (1, 2.0), (2, 2.0), (4, 3.0)):
            policy.on_admit(key(n), now)
        policy.on_admit(key(5), 4.0)
        policy.on_access(key(0), 10.0)
        policy.on_access(key(4), 11.0)
        for n in range(4):
            policy.remove(key(n))
        # Ghosts by (last access, key): 3@1, 1@2, 2@2, 0@10.
        assert len(histories(policy)) == policy.MAX_GHOSTS
        policy.on_admit(key(6), 20.0)
        assert {
            history_key[0].number: history
            for history_key, history in histories(policy).items()
        } == {
            0: [0.0, 10.0],
            2: [2.0],
            4: [3.0, 11.0],
            5: [4.0],
            6: [20.0],
        }

    def test_scan_resistance(self):
        """A one-touch scan never displaces twice-touched hot keys."""
        policy = LRUKPolicy(2)
        for n in range(3):  # hot keys with full history
            policy.on_admit(key(n), float(n))
            policy.on_access(key(n), 10.0 + n)
        for n in range(100, 110):  # scan keys, single touch
            policy.on_admit(key(n), 20.0 + n)
        for __ in range(10):
            victim = policy.evict(200.0)
            assert victim[0].number >= 100


class TestLRD:
    def test_requires_positive_interval(self):
        with pytest.raises(ValueError):
            LRDPolicy(0)

    def test_evicts_lowest_reference_count(self):
        policy = LRDPolicy(halving_interval=1000.0)
        policy.on_admit(key(1), 0.0)
        policy.on_admit(key(2), 0.0)
        for t in (1.0, 2.0, 3.0):
            policy.on_access(key(2), t)
        assert policy.evict(4.0) == key(1)

    def test_aging_halves_counts(self):
        policy = LRDPolicy(halving_interval=1000.0)
        policy.on_admit(key(1), 0.0)
        for t in (1.0, 2.0, 3.0):
            policy.on_access(key(1), t)
        assert policy.reference_density(key(1), 0.0) == pytest.approx(4.0)
        assert policy.reference_density(key(1), 2000.0) == pytest.approx(1.0)

    def test_aged_out_hot_item_loses_to_fresh_item(self):
        policy = LRDPolicy(halving_interval=1000.0)
        policy.on_admit(key(1), 0.0)
        for t in (1.0, 2.0, 3.0, 4.0):
            policy.on_access(key(1), t)  # count 5 at epoch 0
        # Twelve halvings later a single-touch newcomer outweighs it.
        policy.on_admit(key(2), 12_500.0)
        assert policy.evict(12_600.0) == key(1)

    def test_spec_string_with_interval(self):
        policy = create_policy("lrd-2000")
        assert policy.halving_interval == 2000.0


class TestDurationSchemes:
    def test_mean_is_running_average(self):
        policy = MeanPolicy()
        policy.on_admit(key(1), 0.0)
        policy.on_access(key(1), 10.0)  # d=10
        policy.on_access(key(1), 14.0)  # d=4 -> mean 7
        assert policy.estimate(key(1), 14.0) == pytest.approx(7.0)

    def test_ewma_recurrence(self):
        policy = EWMAPolicy(alpha=0.5)
        policy.on_admit(key(1), 0.0)
        policy.on_access(key(1), 8.0)  # first closed gap: M = 8
        policy.on_access(key(1), 10.0)  # M = 0.5*2 + 0.5*8 = 5
        assert policy.mean_duration(key(1)) == pytest.approx(5.0)

    def test_ewma_anticipated_estimate_grows_once_overdue(self):
        policy = EWMAPolicy(alpha=0.5, drift_tolerance=2.0)
        policy.on_admit(key(1), 0.0)
        policy.on_access(key(1), 8.0)  # M = 8, last = 8
        # Within the tolerance window the rank stays frozen at M.
        assert policy.estimate(key(1), 8.0) == pytest.approx(8.0)
        assert policy.estimate(key(1), 20.0) == pytest.approx(8.0)
        # Once overdue (elapsed > 2 * M), the rank drifts upward.
        assert policy.estimate(key(1), 108.0) == pytest.approx(
            0.5 * 8.0 + 0.5 * (100.0 / 2.0)
        )

    def test_ewma_adapts_faster_than_mean(self):
        """After a long silence, one huge gap must move EWMA far more."""
        mean, ewma = MeanPolicy(), EWMAPolicy(0.5)
        for policy in (mean, ewma):
            policy.on_admit(key(1), 0.0)
            for t in range(1, 21):
                policy.on_access(key(1), float(t))
            policy.on_access(key(1), 10_000.0)
        assert ewma.mean_duration(key(1)) > 4_000
        assert mean.estimate(key(1), 10_000.0) < 1_000

    def test_window_limits_memory(self):
        policy = WindowPolicy(window=3)
        policy.on_admit(key(1), 0.0)
        for t in (100.0, 200.0, 300.0, 302.0, 304.0):
            policy.on_access(key(1), t)
        # Window holds [300, 302, 304]: mean gap = 2.
        assert policy.estimate(key(1), 304.0) == pytest.approx(2.0)

    def test_window_requires_at_least_two(self):
        with pytest.raises(ValueError):
            WindowPolicy(window=1)

    def test_ewma_alpha_bounds(self):
        with pytest.raises(ValueError):
            EWMAPolicy(alpha=0.0)
        with pytest.raises(ValueError):
            EWMAPolicy(alpha=1.0)

    def test_evicts_largest_anticipated_duration(self):
        policy = EWMAPolicy(0.5)
        # key 1: long gaps, recently touched. key 2: short gaps, recently
        # touched. The long-gap key is the colder one.
        policy.on_admit(key(1), 0.0)
        policy.on_access(key(1), 100.0)  # M = 50, last = 100
        policy.on_admit(key(2), 90.0)
        policy.on_access(key(2), 100.0)  # M = 5, last = 100
        assert policy.evict(101.0) == key(1)

    def test_evicts_stale_key_without_retouch(self):
        """Adaptivity: an idle key becomes the victim as time passes."""
        policy = EWMAPolicy(0.5)
        policy.on_admit(key(1), 0.0)
        policy.on_access(key(1), 10.0)  # hot era... then silence
        policy.on_admit(key(2), 0.0)
        for t in range(20, 2_000, 20):  # steadily re-accessed
            policy.on_access(key(2), float(t))
        assert policy.evict(2_000.0) == key(1)

    def test_young_items_age_out(self):
        policy = EWMAPolicy(0.5)
        policy.on_admit(key(1), 0.0)
        policy.on_access(key(1), 50.0)  # established, M = 50
        policy.on_admit(key(2), 0.0)  # young, never re-accessed
        # Long after, the young item's penalised elapsed dominates.
        assert policy.evict(1_000.0) == key(2)

    def test_fresh_young_item_protected(self):
        policy = EWMAPolicy(0.5)
        policy.on_admit(key(1), 0.0)
        policy.on_access(key(1), 500.0)  # M = 500
        policy.on_admit(key(2), 999.0)  # brand new
        assert policy.evict(1_000.0) == key(1)

    def test_young_penalty_validation(self):
        with pytest.raises(ValueError):
            MeanPolicy(young_penalty=0.0)


class TestClockAndFifo:
    def test_clock_second_chance(self):
        policy = ClockPolicy()
        for n in range(3):
            policy.on_admit(key(n), float(n))
        policy.on_access(key(0), 5.0)
        # All bits set on admit; first sweep clears them, so the first
        # eviction is the first-admitted key after one full rotation.
        assert policy.evict(6.0) == key(0)

    def test_clock_prefers_unreferenced(self):
        policy = ClockPolicy()
        policy.on_admit(key(0), 0.0)
        policy.on_admit(key(1), 1.0)
        policy.evict(2.0)  # clears/rotates; evicts key 0
        policy.on_admit(key(2), 3.0)
        policy.on_access(key(1), 4.0)
        # key 1 referenced, key 2 referenced-on-admit: sweep clears both,
        # then evicts the hand's next unreferenced key deterministically.
        victim = policy.evict(5.0)
        assert victim in (key(1), key(2))

    def test_fifo_ignores_accesses(self):
        policy = FIFOPolicy()
        for n in range(3):
            policy.on_admit(key(n), float(n))
        policy.on_access(key(0), 10.0)
        assert policy.evict(11.0) == key(0)


class TestRandomPolicy:
    def test_deterministic_for_seed(self):
        def run(seed):
            policy = RandomPolicy(seed=seed)
            for n in range(10):
                policy.on_admit(key(n), float(n))
            return [policy.evict(20.0) for __ in range(10)]

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestRegistry:
    def test_available_policies(self):
        names = available_policies()
        for expected in (
            "lru",
            "lruk",
            "lrd",
            "mean",
            "window",
            "ewma",
            "clock",
            "fifo",
            "random",
        ):
            assert expected in names

    def test_unknown_policy(self):
        with pytest.raises(ReplacementError):
            create_policy("nonsense")

    def test_empty_spec(self):
        with pytest.raises(ReplacementError):
            create_policy("")

    def test_bad_parameter(self):
        with pytest.raises(ReplacementError):
            create_policy("ewma-zero")

    def test_parameterised_specs(self):
        assert create_policy("ewma-0.5").alpha == 0.5
        assert create_policy("window-7").window == 7
        assert create_policy("lru-2").k == 2
