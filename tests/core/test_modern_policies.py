"""Unit tests for the tournament's modern policies and their sketch.

Covers the count-min sketch (conservative increment, saturation,
halving, determinism), W-TinyLFU's segment mechanics and admission
duel, the sketch-gated LRU ablation, LRFU's decay spectrum, and the
spec-string registry surface for all of them.
"""

import pytest

from repro.core.replacement import (
    CMSAdmissionLRUPolicy,
    CountMinSketch,
    LRFUPolicy,
    WTinyLFUPolicy,
    available_policies,
    create_policy,
)
from repro.core.replacement.tinylfu import (
    ADAPTIVE_MAX_FRACTION,
    ADAPTIVE_MIN_FRACTION,
    ADAPT_EVERY,
    SEG_PROBATION,
    SEG_PROTECTED,
    SEG_WINDOW,
)
from repro.errors import ReplacementError
from repro.oodb.objects import OID


def key(n, attr=None):
    return (OID("Root", n), attr)


class TestCountMinSketch:
    def test_estimate_tracks_touches(self):
        sketch = CountMinSketch()
        assert sketch.estimate(key(1)) == 0
        for __ in range(5):
            sketch.increment(key(1))
        assert sketch.estimate(key(1)) == 5

    def test_estimate_never_underestimates(self):
        sketch = CountMinSketch(width=16)  # force collisions
        truth = {}
        for n in range(50):
            for __ in range(n % 4):
                sketch.increment(key(n))
                truth[n] = truth.get(n, 0) + 1
        for n, count in truth.items():
            assert sketch.estimate(key(n)) >= count

    def test_counters_saturate(self):
        sketch = CountMinSketch(max_count=15)
        for __ in range(100):
            sketch.increment(key(1))
        assert sketch.estimate(key(1)) == 15

    def test_halving_forgets_history(self):
        sketch = CountMinSketch(width=4, reset_interval=8)
        for __ in range(7):
            sketch.increment(key(1))
        assert sketch.estimate(key(1)) == 7
        sketch.increment(key(1))  # 8th op triggers the halving
        assert sketch.estimate(key(1)) == 4

    def test_deterministic_across_instances(self):
        def run():
            sketch = CountMinSketch(width=64)
            for n in range(30):
                for __ in range(n % 5):
                    sketch.increment(key(n))
            return [sketch.estimate(key(n)) for n in range(30)]

        assert run() == run()

    def test_width_rounds_to_power_of_two(self):
        assert CountMinSketch(width=100).width == 128

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=0)
        with pytest.raises(ValueError):
            CountMinSketch(depth=5)
        with pytest.raises(ValueError):
            CountMinSketch(max_count=0)
        with pytest.raises(ValueError):
            CountMinSketch(reset_interval=0)


class TestWTinyLFU:
    def test_new_keys_enter_window(self):
        policy = WTinyLFUPolicy(window_fraction=0.5)
        policy.on_admit(key(1), 0.0)
        assert policy.segment_of(key(1)) == SEG_WINDOW

    def test_window_overflow_spills_to_probation(self):
        policy = WTinyLFUPolicy(window_fraction=0.2)
        for n in range(10):
            policy.on_admit(key(n), float(n))
        segments = [policy.segment_of(key(n)) for n in range(10)]
        # Window target is ceil(0.2 * 10) = 2: the eight oldest keys
        # spilled into probation, the two newest stayed in the window.
        assert segments[:8] == [SEG_PROBATION] * 8
        assert segments[8:] == [SEG_WINDOW] * 2

    def test_probation_rehit_promotes_to_protected(self):
        policy = WTinyLFUPolicy(window_fraction=0.2)
        for n in range(10):
            policy.on_admit(key(n), float(n))
        policy.on_access(key(0), 20.0)
        assert policy.segment_of(key(0)) == SEG_PROTECTED

    def test_protected_overflow_demotes(self):
        policy = WTinyLFUPolicy(window_fraction=0.1)
        for n in range(20):
            policy.on_admit(key(n), float(n))
        for n in range(18):  # promote essentially all of probation
            policy.on_access(key(n), 30.0 + n)
        main = [
            k for k in (key(n) for n in range(20))
            if policy.segment_of(k) in (SEG_PROBATION, SEG_PROTECTED)
        ]
        protected = [
            k for k in main if policy.segment_of(k) == SEG_PROTECTED
        ]
        # SLRU: protected is capped at 80% of the main region, the
        # overflow was demoted back to probation.
        assert len(protected) <= max(1, int(0.8 * len(main)))
        assert len(protected) < 18

    def test_cold_window_candidate_is_evicted(self):
        policy = WTinyLFUPolicy(window_fraction=0.2)
        for n in range(10):  # keys 0..7 spill to probation
            policy.on_admit(key(n), float(n))
        victim = policy.evict(20.0)
        # The window victim (key 8, single touch) loses the duel
        # against probation's head and is evicted itself.
        assert victim == key(8)
        assert policy.segment_of(key(0)) == SEG_PROBATION

    def test_hot_window_candidate_displaces_probation_head(self):
        policy = WTinyLFUPolicy(window_fraction=0.2)
        for n in range(10):
            policy.on_admit(key(n), float(n))
        for n in (8, 9):  # heat up both window keys; 8 ends up LRU
            for __ in range(5):
                policy.on_access(key(n), 20.0 + n)
        victim = policy.evict(30.0)
        # The frequent candidate wins: probation's LRU head dies and
        # the candidate transfers into probation.
        assert victim == key(0)
        assert policy.segment_of(key(8)) == SEG_PROBATION

    def test_scan_resistance(self):
        """One-touch scan keys die in the window; the frequency-vetted
        main region survives."""
        policy = WTinyLFUPolicy(window_fraction=0.2)
        for n in range(10):
            policy.on_admit(key(n), float(n))
            for __ in range(3):
                policy.on_access(key(n), 10.0 + n)
        for n in range(100, 120):  # the scan: single-touch keys
            policy.on_admit(key(n), 100.0 + n)
            policy.evict(100.0 + n)
        # Every hot key that had reached the main region is untouched;
        # at most the couple of hot keys still riding the window were
        # exposed.  No more than a window's worth of scan keys linger.
        survivors = [n for n in range(10) if key(n) in policy]
        assert len(survivors) >= 8
        scan_residents = [
            n for n in range(100, 120) if key(n) in policy
        ]
        assert len(scan_residents) <= 3

    def test_window_fraction_validation(self):
        with pytest.raises(ValueError):
            WTinyLFUPolicy(window_fraction=0.0)
        with pytest.raises(ValueError):
            WTinyLFUPolicy(window_fraction=1.0)

    def test_adaptive_shrinks_window_on_miss_storm(self):
        policy = WTinyLFUPolicy(adaptive=True)
        assert policy.window_fraction == pytest.approx(0.10)
        for n in range(300):  # all admissions, zero hits: a scan
            policy.on_admit(key(n), float(n))
        assert policy.window_fraction < 0.10

    def test_adaptive_regrows_window_on_hits(self):
        policy = WTinyLFUPolicy(adaptive=True)
        for n in range(300):
            policy.on_admit(key(n), float(n))
        shrunk = policy.window_fraction
        for round_ in range(100):
            for n in range(5):
                policy.on_access(key(n), 1_000.0 + 5 * round_ + n)
        assert policy.window_fraction > shrunk

    def test_adaptive_shrink_and_regrow_factors(self):
        """Each ``ADAPT_EVERY`` misses halve the window down to the
        floor; each ``ADAPT_EVERY`` hits then regrow it to at least the
        default, by half again each time, up to the cap."""
        policy = WTinyLFUPolicy(adaptive=True)
        default = policy.default_window_fraction
        fractions = []
        for block in range(3):  # a scan: admissions only
            for n in range(ADAPT_EVERY):
                policy.on_admit(key(block * ADAPT_EVERY + n), 0.0)
            fractions.append(policy.window_fraction)
        for __ in range(5):  # locality: hits only
            for __ in range(ADAPT_EVERY):
                policy.on_access(key(0), 1.0)
            fractions.append(policy.window_fraction)
        assert fractions == [
            default * 0.5,
            default * 0.5 * 0.5,
            ADAPTIVE_MIN_FRACTION,
            default,
            default * 1.5,
            default * 1.5 * 1.5,
            ADAPTIVE_MAX_FRACTION,
            ADAPTIVE_MAX_FRACTION,
        ]
        assert ADAPTIVE_MIN_FRACTION > default * 0.5 ** 3
        assert default * 1.5 ** 3 > ADAPTIVE_MAX_FRACTION

    def test_fixed_variant_never_adapts(self):
        policy = WTinyLFUPolicy(window_fraction=0.10)
        for n in range(300):
            policy.on_admit(key(n), float(n))
        assert policy.window_fraction == pytest.approx(0.10)


class TestCMSAdmissionLRU:
    def test_admits_into_empty(self):
        policy = CMSAdmissionLRUPolicy()
        assert policy.should_admit(key(1), 0.0)

    def test_cold_key_denied_against_warmer_victim(self):
        policy = CMSAdmissionLRUPolicy()
        policy.on_admit(key(1), 0.0)
        policy.on_access(key(1), 1.0)
        policy.on_access(key(1), 2.0)
        assert not policy.should_admit(key(2), 3.0)
        assert key(1) in policy  # denial leaves residency untouched

    def test_denied_key_eventually_passes(self):
        """Denials teach the sketch, so persistence wins admission."""
        policy = CMSAdmissionLRUPolicy()
        policy.on_admit(key(1), 0.0)
        policy.on_access(key(1), 1.0)
        attempts = 0
        while not policy.should_admit(key(2), 2.0):
            attempts += 1
            assert attempts < 10
        assert attempts >= 1

    def test_evicts_lru_order(self):
        policy = CMSAdmissionLRUPolicy()
        for n in range(3):
            policy.on_admit(key(n), float(n))
        policy.on_access(key(0), 10.0)
        assert policy.evict(11.0) == key(1)
        assert policy.evict(11.0) == key(2)
        assert policy.evict(11.0) == key(0)


class TestLRFU:
    def test_small_lambda_behaves_like_lfu(self):
        policy = LRFUPolicy(decay=1e-6)
        policy.on_admit(key(1), 0.0)
        for t in (1.0, 2.0, 3.0):
            policy.on_access(key(1), t)
        policy.on_admit(key(2), 100.0)  # recent but touched once
        assert policy.evict(101.0) == key(2)

    def test_large_lambda_behaves_like_lru(self):
        policy = LRFUPolicy(decay=10.0)
        policy.on_admit(key(1), 0.0)
        for t in (1.0, 2.0, 3.0):
            policy.on_access(key(1), t)
        policy.on_admit(key(2), 100.0)
        # With aggressive decay the old frequency has evaporated; only
        # the last touch matters and key 1 is older.
        assert policy.evict(101.0) == key(1)

    def test_crf_decays_between_touches(self):
        policy = LRFUPolicy(decay=1e-3)
        policy.on_admit(key(1), 0.0)
        early = policy.crf_log2(key(1), 10.0)
        late = policy.crf_log2(key(1), 10_000.0)
        assert late < early

    def test_each_touch_adds_one(self):
        policy = LRFUPolicy(decay=1e-3)
        policy.on_admit(key(1), 0.0)
        policy.on_access(key(1), 0.0)  # C = 2 exactly (no decay gap)
        assert policy.crf_log2(key(1), 0.0) == pytest.approx(1.0)

    def test_long_horizon_scores_stay_finite(self):
        policy = LRFUPolicy(decay=1e-3)
        policy.on_admit(key(1), 0.0)
        for t in range(1, 400):
            policy.on_access(key(1), t * 1_000.0)
        assert policy.crf_log2(key(1), 400_000.0) < 64.0

    def test_decay_validation(self):
        with pytest.raises(ValueError):
            LRFUPolicy(decay=0.0)
        with pytest.raises(ValueError):
            LRFUPolicy(decay=-1.0)


class TestModernRegistry:
    def test_registered(self):
        names = available_policies()
        for expected in ("tinylfu", "cmslru", "lrfu"):
            assert expected in names

    def test_tinylfu_specs(self):
        assert create_policy("tinylfu").name == "tinylfu"
        adaptive = create_policy("tinylfu-adaptive")
        assert adaptive.name == "tinylfu-adaptive"
        assert adaptive.adaptive
        quarter = create_policy("tinylfu-25")
        assert quarter.name == "tinylfu-25"
        assert quarter.window_fraction == pytest.approx(0.25)

    def test_cmslru_specs(self):
        assert create_policy("cmslru").name == "cmslru"
        tuned = create_policy("cmslru-8192")
        assert tuned.name == "cmslru-8192"
        assert tuned._sketch.reset_interval == 8192

    def test_lrfu_specs(self):
        assert create_policy("lrfu").decay == pytest.approx(1e-3)
        assert create_policy("lrfu-0.01").name == "lrfu-0.01"
        # The default-parameter convention matches "lru-1" -> "lru".
        assert create_policy("lrfu-0.001").name == "lrfu"

    @pytest.mark.parametrize(
        "spec",
        [
            "lru-0",
            "lru-nan",
            "window-inf",
            "ewma--1",
            "mean-0",
            "tinylfu-",
            "tinylfu-0",
            "tinylfu-100",
            "tinylfu-fast",
            "cmslru-0",
            "cmslru-2.5",
            "lrfu-0",
            "lrfu--2",
            "random--1",
            "random-1.5",
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ReplacementError):
            create_policy(spec)

    def test_malformed_spec_errors_are_descriptive(self):
        with pytest.raises(ReplacementError, match="dangling"):
            create_policy("tinylfu-")
        with pytest.raises(ReplacementError, match="adaptive"):
            create_policy("tinylfu-fast")
