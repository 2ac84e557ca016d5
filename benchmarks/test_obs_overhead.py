"""Micro-benchmark: the event bus is affordable when instrumentation is off.

Every always-on event is emitted in every run, subscriber or not, so
the bus's ``emit`` sits on every hot path.  This benchmark bounds what
that costs on Experiment #1's base configuration:

* the per-event cost of an ``emit`` with no subscriber, extrapolated to
  the run's actual event volume, must stay under 5% of the run's wall
  clock;
* a guarded emit site whose event type has no subscriber must cost a
  dict probe, not an event construction.
"""

import time

from conftest import horizon
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_simulation
from repro.obs.bus import EventBus
from repro.obs.events import CacheAccess, CacheEvict

#: Emissions for the micro timing loops (large enough to dwarf timer
#: resolution, small enough to keep the benchmark quick).
MICRO_EMITS = 200_000
#: Overhead budget relative to the run's wall clock.
BUDGET = 0.05


def _time(fn, repeats=3):
    best = float("inf")
    for __ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_bus_off_overhead_under_budget():
    # 1. One real run of the base configuration, instrumentation off.
    config = SimulationConfig(horizon_hours=horizon(0.5))
    run_started = time.perf_counter()
    result = run_simulation(config)
    run_seconds = time.perf_counter() - run_started
    total_events = sum(result.event_counts.values())
    assert total_events > 0

    # 2. Per-event cost of an always-on emit that no sink subscribed to,
    #    the case of every run without a trace or invariants.
    bus = EventBus()
    event = CacheAccess(
        time=1.0, client_id=0, key="oid", hit=True, error=False,
        answered=True, connected=True,
    )

    def via_bus():
        emit = bus.emit
        for __ in range(MICRO_EMITS):
            emit(event)

    per_event = _time(via_bus) / MICRO_EMITS
    projected = per_event * total_events
    share = projected / run_seconds
    print(
        f"\nrun {run_seconds:.2f}s, {total_events} events, "
        f"emit {per_event * 1e9:.0f} ns/event "
        f"-> {projected * 1e3:.1f} ms projected ({share:.2%} of run)"
    )
    assert share < BUDGET, (
        f"bus emits project to {share:.2%} of the run's wall clock "
        f"(budget {BUDGET:.0%})"
    )


def test_guarded_emit_site_costs_a_probe_when_off():
    bus = EventBus()
    bus.subscribe(CacheAccess, lambda event: None)  # not CacheEvict

    def guard_loop():
        wants = bus.wants
        for __ in range(MICRO_EMITS):
            if wants(CacheEvict):  # pragma: no cover - never true here
                raise AssertionError("no subscriber expected")

    per_check = _time(guard_loop) / MICRO_EMITS
    print(f"\nwants() miss: {per_check * 1e9:.0f} ns/check")
    # A dict probe plus tuple truthiness; a healthy margin over any
    # plausible interpreter, but far below event construction cost.
    assert per_check < 2e-6


def test_invariant_checking_overhead_under_budget():
    """`--invariants` must stay within the obs overhead budget.

    Same extrapolation scheme as the bus benchmark: per-event cost of
    `InvariantEngine.feed` on the hottest event type, projected to the
    base run's real event volume, bounded by 5% of its wall clock.
    """
    from repro.analysis.invariants import InvariantEngine
    from repro.experiments.runner import Simulation

    config = SimulationConfig(horizon_hours=horizon(0.5))
    run_started = time.perf_counter()
    result = run_simulation(config)
    run_seconds = time.perf_counter() - run_started
    total_events = sum(result.event_counts.values())

    engine = InvariantEngine()
    event = CacheAccess(
        time=1.0, client_id=0, key="oid", hit=True, error=False,
        answered=True, connected=True,
    )

    def feed_loop():
        feed = engine.feed
        for __ in range(MICRO_EMITS):
            feed(event)

    per_event = _time(feed_loop) / MICRO_EMITS
    projected = per_event * total_events
    share = projected / run_seconds
    print(
        f"\nrun {run_seconds:.2f}s, {total_events} events, "
        f"invariant feed {per_event * 1e9:.0f} ns/event "
        f"-> {projected * 1e3:.1f} ms projected ({share:.2%} of run)"
    )
    assert share < BUDGET, (
        f"invariant checking projects to {share:.2%} of the run's wall "
        f"clock (budget {BUDGET:.0%})"
    )

    # Strictly zero-cost when off: no engine object, nothing subscribed.
    assert Simulation(config).invariant_engine is None
