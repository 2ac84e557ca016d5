"""Golden-value regression pins.

The simulation is fully deterministic for a given seed, so headline
metrics of a fixed configuration are pinned *exactly*.  These pins catch
unintended behavioural drift anywhere in the stack (kernel scheduling,
random-stream usage, protocol sizes, policy decisions).

If a change to the model is intentional, update the pins — the diff then
documents the behavioural impact of the change.
"""

import hashlib

import pytest

from repro import SimulationConfig, run_simulation


def test_default_hc_configuration_pinned():
    result = run_simulation(SimulationConfig(horizon_hours=2.0))
    assert result.summary.total_queries == 736
    assert result.hit_ratio == pytest.approx(
        0.42774003623188406, abs=1e-12
    )
    assert result.response_time == pytest.approx(
        1.9377924475364128, abs=1e-9
    )
    assert result.error_rate == pytest.approx(
        0.033627717391304345, abs=1e-12
    )


def test_oc_lru_configuration_pinned():
    result = run_simulation(
        SimulationConfig(
            granularity="OC", replacement="lru", horizon_hours=2.0
        )
    )
    assert result.summary.total_queries == 736
    assert result.hit_ratio == pytest.approx(
        0.46324728260869563, abs=1e-12
    )
    assert result.response_time == pytest.approx(
        8.239159990457395, abs=1e-9
    )
    assert result.error_rate == pytest.approx(
        0.07601902173913043, abs=1e-12
    )


def test_default_trace_bytes_pinned(tmp_path):
    # The JSONL trace holds every bus event in emission order, field by
    # field, so its digest pins the event taxonomy's encoding and the
    # whole event sequence across commits (the hash-seed check in
    # scripts/determinism_smoke.py only compares two runs of one commit).
    path = tmp_path / "trace.jsonl"
    result = run_simulation(
        SimulationConfig(horizon_hours=0.5, trace_path=str(path))
    )
    trace = path.read_bytes()
    assert result.events_processed == 2620
    assert trace.count(b"\n") == 31098
    assert hashlib.sha256(trace).hexdigest() == (
        "3565a48ab1249b1792c246513d60ef710cb961491eca5d6210c44b23f7e734af"
    )


def test_lossy_recovery_trace_bytes_pinned(tmp_path):
    # The fault-free pin above never times out, retries or drops a late
    # reply; this one pins the bus event order through the client's
    # reply-or-timeout wait.  ``events_processed`` is left out, as in
    # the bench fingerprint: it counts kernel bookkeeping, not outcomes.
    path = tmp_path / "trace.jsonl"
    run_simulation(
        SimulationConfig(
            num_clients=100,
            horizon_hours=0.2,
            loss_rate=0.05,
            request_timeout_seconds=20.0,
            retry_budget=2,
            trace_path=str(path),
        )
    )
    trace = path.read_bytes()
    assert trace.count(b"\n") == 58132
    assert hashlib.sha256(trace).hexdigest() == (
        "bfcec6d12aefaf9fb6dc9c63385cb6f48bb5ea34c437bf74a8eb07eb3b2885f4"
    )
