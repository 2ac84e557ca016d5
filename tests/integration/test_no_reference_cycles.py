"""A run drops no reference cycles, so it can run without the collector.

``Simulation.run`` switches the cyclic garbage collector off for the
kernel loop.  That is safe only while everything a running simulation
lets go of is freed by reference counting alone.  Each configuration
below is built, then run with the collector off, and a collection after
the run must find nothing unreachable.  The wired simulation is itself
one large cyclic graph, but it stays referenced here until the check is
done; once dropped it is left to the collector as before.

The matrix covers every granularity, invalidation reports,
disconnections, message loss with retries, bursty loss with retries and
disconnections, bursty arrivals under TinyLFU, and the optional sinks
(invariants, staleness timeline, profiler, JSONL trace).  If a
configuration ever fails, break the cycle where it is made.
"""

import collections
import gc
import weakref

import pytest

from repro import SimulationConfig
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
    "invariants-staleness-profile-trace": {
        "invariants": True,
        "staleness_timeline": True,
        "profile": True,
        # Replaced by a JSONL trace file under the test's temporary dir.
        "trace": True,
    },
}


def unreachable_after_run(sim: Simulation) -> tuple[int, str]:
    """Run ``sim`` with the collector off; return how many unreachable
    objects a collection then finds, and their commonest types."""
    gc.collect()
    gc.disable()
    try:
        sim.run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        kinds = collections.Counter(type(o).__name__ for o in gc.garbage)
        gc.garbage.clear()
    finally:
        gc.set_debug(0)
        gc.enable()
    return found, str(kinds.most_common(10))


@pytest.mark.parametrize("overrides", CONFIGS.values(), ids=list(CONFIGS))
def test_run_leaves_nothing_for_the_collector(overrides, tmp_path):
    overrides = dict(overrides)
    if overrides.pop("trace", False):
        overrides["trace_path"] = str(tmp_path / "trace.jsonl")
    sim = Simulation(SimulationConfig(horizon_hours=HOURS, **overrides))
    found, kinds = unreachable_after_run(sim)
    assert found == 0, kinds


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

    def test_dropped_simulations_do_not_pile_up(self):
        """A finished simulation is a cyclic graph, and paused runs give
        the collector few passes; each run after the first in a process
        collects the ones dropped before it."""
        gc.enable()
        # A client, not the Simulation object: nothing refers back to
        # that, so it is freed on ``del`` while its graph lingers.
        alive = []
        for seed in range(4):
            sim = short_simulation(seed)
            alive.append(weakref.ref(sim.clients[0]))
            sim.run()
            del sim
        # Only the last one can still wait for the collector.
        assert [ref() is None for ref in alive[:-1]] == [True] * 3
