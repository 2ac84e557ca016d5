"""A run drops no reference cycles, and a finished run breaks its own.

``Simulation.run`` switches the cyclic garbage collector off for the
kernel loop.  That is safe only while everything a running simulation
lets go of is freed by reference counting alone.  The wired simulation
itself is cyclic while it runs: server and clients refer to each other,
and each waiting process is held by an event its generator holds.  The
end of ``run`` breaks those cycles, so a dropped simulation is freed at
``del``, and a sweep of many runs in one process leaves nothing for the
collector.

Each configuration below is built and run with the collector off.  A
collection while the simulation is still referenced must find nothing
(the run dropped no cycle), and so must one after ``del`` (the finished
run broke its own).  The matrix covers every granularity, invalidation
reports, disconnections, message loss with retries, bursty loss with
retries and disconnections, bursty arrivals under TinyLFU, a lossy
100-client fleet whose channels still hold queued messages at the
horizon, and the optional sinks (invariants, staleness timeline,
profiler, JSONL trace).  If a configuration ever fails, break the cycle
where it is made, or in ``Simulation._release`` if it is wiring.
"""

import collections
import gc
import weakref

import pytest

from repro import SimulationConfig
from repro.errors import SimulationError
from repro.experiments.runner import Simulation

HOURS = 1.0

FAULTS = {
    "loss_rate": 0.05,
    "request_timeout_seconds": 20.0,
    "retry_budget": 3,
}
DISCONNECTIONS = {"disconnected_clients": 3, "disconnection_hours": 0.3}
CONFIGS = {
    "HC": {},
    "OC": {"granularity": "OC"},
    "AC": {"granularity": "AC"},
    "PC": {"granularity": "PC"},
    "NC": {"granularity": "NC"},
    "invalidation-reports": {"coherence": "invalidation-report"},
    "disconnections": DISCONNECTIONS,
    "loss-retry": FAULTS,
    "loss-retry-bursts-disconnections": {
        **FAULTS,
        **DISCONNECTIONS,
        "burst_loss_rate": 0.5,
        "burst_on_probability": 0.05,
        "burst_off_probability": 0.3,
    },
    "bursty-tinylfu": {"replacement": "tinylfu-adaptive", "arrival": "bursty"},
    "lossy-fleet": {
        **FAULTS,
        "num_clients": 100,
        "horizon_hours": 0.2,
        "retry_budget": 2,
    },
    "invariants-staleness-profile-trace": {
        "invariants": True,
        "staleness_timeline": True,
        "profile": True,
        # Replaced by a JSONL trace file under the test's temporary dir.
        "trace": True,
    },
}


def unreachable() -> tuple[int, str]:
    """Collect; return how many unreachable objects the collector found
    and their commonest types."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        found = gc.collect()
        kinds = collections.Counter(type(o).__name__ for o in gc.garbage)
        gc.garbage.clear()
    finally:
        gc.set_debug(0)
    return found, str(kinds.most_common(10))


@pytest.mark.parametrize("overrides", CONFIGS.values(), ids=list(CONFIGS))
def test_run_leaves_nothing_for_the_collector(overrides, tmp_path):
    overrides = {"horizon_hours": HOURS, **overrides}
    if overrides.pop("trace", False):
        overrides["trace_path"] = str(tmp_path / "trace.jsonl")
    sim = Simulation(SimulationConfig(**overrides))
    gc.collect()
    gc.disable()
    try:
        sim.run()
        during = unreachable()
        del sim
        after = unreachable()
    finally:
        gc.enable()
    assert during[0] == 0, f"dropped by the run: {during[1]}"
    assert after[0] == 0, f"left by the finished run: {after[1]}"


def _probe_collector(env, seen):
    yield env.timeout(1.0)
    seen.append(gc.isenabled())


def _fail_mid_run(env):
    yield env.timeout(1.0)
    raise RuntimeError("boom")


def short_simulation(seed: int = 42) -> Simulation:
    return Simulation(SimulationConfig(horizon_hours=0.05, seed=seed))


@pytest.fixture()
def restore_collector():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.usefixtures("restore_collector")
class TestCollectorState:
    def test_enabled_collector_is_paused_then_restored(self):
        gc.enable()
        sim = short_simulation()
        seen: list[bool] = []
        sim.env.process(_probe_collector(sim.env, seen))
        sim.run()
        assert seen == [False]
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self):
        sim = short_simulation()
        seen: list[bool] = []
        sim.env.process(_probe_collector(sim.env, seen))
        gc.disable()
        sim.run()
        assert seen == [False]
        assert not gc.isenabled()

    def test_collector_restored_when_the_run_raises(self):
        gc.enable()
        sim = short_simulation()
        sim.env.process(_fail_mid_run(sim.env))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert gc.isenabled()


@pytest.mark.usefixtures("restore_collector")
def test_dropped_simulation_is_freed_at_del():
    """With the collector off, dropping a finished simulation frees it
    at once: each run's client is gone as soon as its simulation is."""
    gc.collect()
    gc.disable()
    for seed in range(3):
        sim = short_simulation(seed)
        # A client, not the Simulation object: nothing refers back to
        # the Simulation, so it alone would be freed even if its graph
        # lingered.
        client = weakref.ref(sim.clients[0])
        sim.run()
        del sim
        assert client() is None, f"seed {seed}: the run outlived del"


def test_second_run_is_refused():
    """A finished run has broken its wiring; running it again would
    start a second server and client processes on that graph."""
    sim = short_simulation()
    result = sim.run()
    with pytest.raises(SimulationError, match="already run"):
        sim.run()
    assert sim.env.events_processed == result.events_processed
