"""Property-based determinism of the simulation kernel.

The parallel experiment executor guarantees bit-identical sweeps at any
worker count.  That guarantee rests on one invariant: a simulation is a
pure function of its seed — two :class:`Environment` runs with the same
seed produce identical event traces, draw for draw and tick for tick.
These tests pin the invariant at the kernel level (a contended-resource
mini-model traced event by event), at the full stack level (entire
simulations compared metric for metric) and across processes (the JSONL
trace under two ``PYTHONHASHSEED`` values, byte for byte).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import Simulation, run_simulation
from repro.sim import Environment, RandomStream, Resource
from repro.sim.rand import _derive_seed


def traced_mini_simulation(seed: int, horizon: float = 50.0):
    """A small contended model returning its full event trace.

    Three workers share one FCFS facility; each waits an exponential
    think time, claims the facility for an exponential service time, and
    logs every state change with the simulated clock.  The trace exposes
    scheduling order, clock values and random draws all at once — if any
    of them drifts between runs, the traces differ.
    """
    env = Environment()
    root = RandomStream(seed)
    facility = Resource(env, name="facility")
    trace: list[tuple[float, str, str]] = []

    def worker(name: str, rng: RandomStream):
        while True:
            yield env.timeout(rng.exponential(3.0))
            trace.append((env.now, name, "request"))
            with facility.request() as claim:
                yield claim
                trace.append((env.now, name, "acquired"))
                yield env.timeout(rng.exponential(1.5))
            trace.append((env.now, name, "released"))

    for index in range(3):
        env.process(worker(f"w{index}", root.fork(f"worker-{index}")))
    env.run(until=horizon)
    return trace


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_same_seed_same_event_trace(seed):
    first = traced_mini_simulation(seed)
    second = traced_mini_simulation(seed)
    assert len(first) > 0
    assert first == second


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_different_seeds_different_traces(seed):
    # Not a hard theorem, but 2^64 seed space makes a collision across
    # hundreds of timestamped events vanishingly unlikely — a failure
    # here means seeding is broken, not that we got unlucky.
    assert traced_mini_simulation(seed) != traced_mini_simulation(seed + 1)


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_trace_independent_of_prior_simulations(seed):
    """Running other seeds in between must not leak state across runs
    (module-level caches, class attributes, interned RNGs...)."""
    expected = traced_mini_simulation(seed)
    traced_mini_simulation(seed + 12345)
    assert traced_mini_simulation(seed) == expected


def result_fingerprint(result):
    return (
        result.summary.total_queries,
        result.hit_ratio,
        result.response_time,
        result.error_rate,
        result.disconnected_error_rate,
        result.uplink_utilization,
        result.downlink_utilization,
        result.server_buffer_hit_ratio,
        result.items_prefetched,
        result.requests_served,
    )


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_full_simulation_bitwise_reproducible(seed):
    config = SimulationConfig(
        horizon_hours=0.1, num_clients=2, num_objects=200, selectivity=5
    )
    config = config.replaced(seed=seed)
    assert result_fingerprint(run_simulation(config)) == result_fingerprint(
        run_simulation(config)
    )


def test_full_simulation_sensitive_to_seed():
    config = SimulationConfig(
        horizon_hours=0.2, num_clients=2, num_objects=200, selectivity=5
    )
    a = run_simulation(config.replaced(seed=1))
    b = run_simulation(config.replaced(seed=2))
    assert result_fingerprint(a) != result_fingerprint(b)


def test_client_streams_fork_to_the_per_client_seeds():
    """Each client stream forks from the root under a joined label and
    gets the seed a fork of a per-client ``client-N`` stream would."""
    seed = 1234
    sim = Simulation(
        SimulationConfig(
            seed=seed,
            num_clients=3,
            request_timeout_seconds=20.0,
            horizon_hours=0.1,
        )
    )
    root = RandomStream(seed, label="root")
    for client_id, client in enumerate(sim.clients):
        streams = {
            "heat": client.workload.heat._rng,
            "queries": client.workload._rng,
            "arrivals": client.arrivals._rng,
            "recovery": client._backoff_rng,
        }
        for name, stream in streams.items():
            nested = root.fork(f"client-{client_id}").fork(name)
            assert _derive_seed(stream.seed, stream.label) == _derive_seed(
                nested.seed, nested.label
            )


_TRACED_RUN = """\
import sys

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_simulation

result = run_simulation(
    SimulationConfig(horizon_hours=0.1, trace_path=sys.argv[1])
)
print(result.events_processed)
"""


def _traced_run_under_hash_seed(hash_seed, trace_path):
    """(trace SHA-256, events processed) of a run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(trace_path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    digest = hashlib.sha256(trace_path.read_bytes()).hexdigest()
    return digest, int(out.stdout)


def test_trace_is_byte_identical_across_hash_seeds(tmp_path):
    # Order-sensitive: a hash-order leak that only reorders work (same
    # events, different sequence) still changes the trace digest.
    first = _traced_run_under_hash_seed("0", tmp_path / "a.jsonl")
    second = _traced_run_under_hash_seed("424242", tmp_path / "b.jsonl")
    assert first[1] > 0
    assert first == second
