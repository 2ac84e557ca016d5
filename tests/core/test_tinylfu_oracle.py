"""W-TinyLFU and CMS-LRU against slow twins with plain-list segments.

Each twin keeps its segments as Python lists (index 0 is the LRU end)
over :class:`ReferenceSketch`, the row-of-rows sketch, and follows the
policy's documented rules one list operation at a time: no identity
label tests, no shared slot memo, no reused duel estimates.  After every
call the policy and its twin must agree on the answer (victim,
``last_eviction_score``, ``should_admit`` verdict), on ``segment_of``
and ``frequency`` for every key, and on the window fraction.

The hypothesis streams run at small sketch widths, so keys collide and
the duel sees ties, and are longer than ``ADAPT_EVERY`` events, so the
adaptive controller acts.  One short ``tinylfu-adaptive`` + zipf
simulation feeds each client's calls to its policy and a twin through a
proxy.
"""

import math

from hypothesis import given, settings, strategies as st

import repro.client.mobile_client as mobile_client
from repro import SimulationConfig, run_simulation
from repro.core.replacement import (
    CMSAdmissionLRUPolicy,
    CountMinSketch,
    WTinyLFUPolicy,
    create_policy,
)
from repro.core.replacement.sketch import (
    DEFAULT_DEPTH,
    DEFAULT_MAX_COUNT,
    DEFAULT_WIDTH,
)
from repro.core.replacement.tinylfu import (
    ADAPTIVE_EWMA_ALPHA,
    ADAPTIVE_MAX_FRACTION,
    ADAPTIVE_MIN_FRACTION,
    ADAPT_EVERY,
    PROTECTED_FRACTION,
    RECOVER_HIT_RATE,
    SCAN_HIT_RATE,
)
from repro.oodb.objects import OID
from tests.core.test_sketch_oracle import ReferenceSketch


class TwinTinyLFU:
    """W-TinyLFU over three plain lists."""

    def __init__(self, sketch, window_fraction, adaptive):
        self.sketch = sketch
        self.window, self.probation, self.protected = [], [], []
        self.window_fraction = window_fraction
        self.default_window_fraction = window_fraction
        self.adaptive = adaptive
        self.hit_ewma = 0.5
        self.events = 0
        self.last_eviction_score = None

    def segments(self):
        return {
            "window": self.window,
            "probation": self.probation,
            "protected": self.protected,
        }

    def segment_of(self, key):
        for name, segment in self.segments().items():
            if key in segment:
                return name
        return None

    def __len__(self):
        return len(self.window) + len(self.probation) + len(self.protected)

    def should_admit(self, key, now):
        return True

    def on_admit(self, key, now):
        assert self.segment_of(key) is None
        self.sketch.increment(key)
        self.window.append(key)
        self.observe(0.0)
        self.spill()

    def on_access(self, key, now):
        segment = self.segments()[self.segment_of(key)]
        self.sketch.increment(key)
        segment.remove(key)
        if segment is self.probation:
            self.protected.append(key)
            main = len(self.probation) + len(self.protected)
            while len(self.protected) > max(1, int(PROTECTED_FRACTION * main)):
                self.probation.append(self.protected.pop(0))
        else:
            segment.append(key)
        self.observe(1.0)

    def remove(self, key):
        self.segments()[self.segment_of(key)].remove(key)

    def evict(self, now):
        if self.window and self.probation:
            candidate, incumbent = self.window[0], self.probation[0]
            if self.sketch.estimate(candidate) > self.sketch.estimate(
                incumbent
            ):
                self.window.remove(candidate)
                self.probation.append(candidate)
                victim = incumbent
            else:
                victim = candidate
        else:
            victim = (self.window or self.probation or self.protected)[0]
        self.last_eviction_score = float(self.sketch.estimate(victim))
        self.remove(victim)
        return victim

    def spill(self):
        target = max(1, math.ceil(self.window_fraction * len(self)))
        while len(self.window) > target:
            self.probation.append(self.window.pop(0))

    def observe(self, hit):
        if not self.adaptive:
            return
        self.hit_ewma += ADAPTIVE_EWMA_ALPHA * (hit - self.hit_ewma)
        self.events += 1
        if self.events % ADAPT_EVERY:
            return
        if self.hit_ewma < SCAN_HIT_RATE:
            self.window_fraction = max(
                ADAPTIVE_MIN_FRACTION, self.window_fraction * 0.5
            )
            self.spill()
        elif self.hit_ewma > RECOVER_HIT_RATE:
            self.window_fraction = min(
                ADAPTIVE_MAX_FRACTION,
                max(self.default_window_fraction, self.window_fraction * 1.5),
            )


class TwinCMSLRU:
    """Sketch-gated LRU over one plain list."""

    window_fraction = None

    def __init__(self, sketch):
        self.sketch = sketch
        self.order = []
        self.last_eviction_score = None

    def segment_of(self, key):
        return None

    def __len__(self):
        return len(self.order)

    def should_admit(self, key, now):
        self.sketch.increment(key)
        if not self.order:
            return True
        return self.sketch.estimate(key) > self.sketch.estimate(self.order[0])

    def on_admit(self, key, now):
        self.sketch.increment(key)
        self.order.append(key)

    def on_access(self, key, now):
        self.sketch.increment(key)
        self.order.remove(key)
        self.order.append(key)

    def remove(self, key):
        self.order.remove(key)

    def evict(self, now):
        victim = self.order.pop(0)
        self.last_eviction_score = float(self.sketch.estimate(victim))
        return victim


def assert_agree(policy, twin, keys):
    assert len(policy) == len(twin)
    assert policy.last_eviction_score == twin.last_eviction_score
    assert getattr(policy, "window_fraction", None) == twin.window_fraction
    for key in keys:
        assert policy.segment_of(key) == twin.segment_of(key), key
        assert policy.frequency(key) == twin.sketch.estimate(key), key


KEYS = [(OID("Root", n), attr) for n in range(40) for attr in ("a0", None)]


def make_pair(kind, width, depth, reset_interval, max_count, fraction):
    sketch = CountMinSketch(width, depth, reset_interval, max_count)
    reference = ReferenceSketch(
        sketch.width, depth, reset_interval, max_count
    )
    if kind == "cmslru":
        return CMSAdmissionLRUPolicy(sketch=sketch), TwinCMSLRU(reference)
    adaptive = kind == "adaptive"
    policy = WTinyLFUPolicy(fraction, adaptive=adaptive, sketch=sketch)
    return policy, TwinTinyLFU(reference, fraction, adaptive)


def drive(policy, twin, capacity, ops):
    """Run ``ops`` like a storage cache of ``capacity`` keys would."""
    seen = set()
    for now, (op, index) in enumerate(ops):
        key = KEYS[index]
        seen.add(key)
        if op == "touch" and key in policy:
            policy.on_access(key, float(now))
            twin.on_access(key, float(now))
        elif op == "touch":
            if len(policy) >= capacity:
                verdict = policy.should_admit(key, float(now))
                assert verdict == twin.should_admit(key, float(now))
                assert_agree(policy, twin, seen)
                if not verdict:
                    continue
                while len(policy) >= capacity:
                    assert policy.evict(float(now)) == twin.evict(float(now))
                    assert_agree(policy, twin, seen)
            policy.on_admit(key, float(now))
            twin.on_admit(key, float(now))
        elif op == "remove" and key in policy:
            policy.remove(key)
            twin.remove(key)
        elif op == "evict" and len(policy):
            assert policy.evict(float(now)) == twin.evict(float(now))
        assert_agree(policy, twin, seen)


@st.composite
def streams(draw):
    """Phases over sliding key ranges: small ranges hit, large ranges
    miss, so the adaptive window both shrinks and regrows."""
    ops = []
    for __ in range(draw(st.integers(1, 3))):
        low = draw(st.integers(0, len(KEYS) - 2))
        high = draw(st.integers(low + 1, len(KEYS) - 1))
        ops += draw(st.lists(
            st.tuples(
                st.sampled_from(["touch"] * 8 + ["remove", "evict"]),
                st.integers(low, high),
            ),
            min_size=ADAPT_EVERY + 1,
            max_size=160,
        ))
    return ops


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["fixed", "adaptive", "cmslru"]),
    width=st.sampled_from([1, 2, 4, 8, 16]),
    depth=st.integers(1, 4),
    reset_interval=st.integers(1, 60),
    max_count=st.integers(1, 15),
    fraction=st.sampled_from([0.1, 0.25, 0.5, 0.9]),
    capacity=st.integers(1, 16),
    ops=streams(),
)
def test_policy_matches_list_twin(
    kind, width, depth, reset_interval, max_count, fraction, capacity, ops
):
    policy, twin = make_pair(
        kind, width, depth, reset_interval, max_count, fraction
    )
    drive(policy, twin, capacity, ops)


def test_adaptive_twin_sees_shrink_and_regrow():
    """A scan then a loop moves the adaptive window both ways, so the
    drawn streams' controller paths are reachable."""
    policy, twin = make_pair("adaptive", 4, 4, 40, 15, 0.1)
    scan = [("touch", n % len(KEYS)) for n in range(3 * ADAPT_EVERY)]
    loop = [("touch", n % 3) for n in range(6 * ADAPT_EVERY)]
    drive(policy, twin, 8, scan)
    assert policy.window_fraction < 0.1
    drive(policy, twin, 8, loop)
    assert policy.window_fraction > 0.1


class TwinProxy:
    """A policy that forwards every call to the real policy and its twin
    and checks they agree; the storage cache sees only the real answers."""

    def __init__(self, policy, twin):
        self.policy = policy
        self.twin = twin
        self.name = policy.name

    @property
    def last_eviction_score(self):
        return self.policy.last_eviction_score

    def __contains__(self, key):
        return key in self.policy

    def __len__(self):
        return len(self.policy)

    def describe(self):
        return self.policy.describe()

    def segment_of(self, key):
        return self.policy.segment_of(key)

    def _check(self, key):
        assert_agree(self.policy, self.twin, [key])

    def should_admit(self, key, now):
        verdict = self.policy.should_admit(key, now)
        assert verdict == self.twin.should_admit(key, now)
        self._check(key)
        return verdict

    def on_admit(self, key, now):
        self.policy.on_admit(key, now)
        self.twin.on_admit(key, now)
        self._check(key)

    def on_access(self, key, now):
        self.policy.on_access(key, now)
        self.twin.on_access(key, now)
        self._check(key)

    def remove(self, key):
        self.policy.remove(key)
        self.twin.remove(key)
        self._check(key)

    def evict(self, now):
        victim = self.policy.evict(now)
        assert victim == self.twin.evict(now)
        # Every segment's order, not just the victim's absence.
        assert [list(segment) for segment in (
            self.policy._window, self.policy._probation, self.policy._protected
        )] == list(self.twin.segments().values())
        self._check(victim)
        return victim


def test_adaptive_zipf_simulation_matches_twin(monkeypatch):
    """Every client's policy runs beside a twin; a 40-object cache
    keeps them evicting."""
    proxies = []

    def create_twinned(spec):
        assert spec == "tinylfu-adaptive"
        policy = create_policy(spec)
        twin = TwinTinyLFU(
            ReferenceSketch(
                DEFAULT_WIDTH,
                DEFAULT_DEPTH,
                8 * DEFAULT_WIDTH,
                DEFAULT_MAX_COUNT,
            ),
            policy.window_fraction,
            adaptive=True,
        )
        proxies.append(TwinProxy(policy, twin))
        return proxies[-1]

    monkeypatch.setattr(mobile_client, "create_policy", create_twinned)
    result = run_simulation(SimulationConfig(
        replacement="tinylfu-adaptive",
        heat="zipf",
        horizon_hours=1.0,
        client_cache_objects=40,
    ))
    assert result.summary.total_queries > 0
    assert len(proxies) == SimulationConfig().num_clients
    # Every client evicted, and the controller moved some window.
    assert all(
        proxy.twin.last_eviction_score is not None for proxy in proxies
    )
    assert any(
        proxy.policy.window_fraction != proxy.policy.default_window_fraction
        for proxy in proxies
    )
