"""Smoke benchmark: the parallel executor actually scales.

Runs a reduced-horizon, one-replication Experiment #1 scenario serially
and with one worker per core, checks the pool produces a byte-identical
envelope, and asserts a conservative speedup floor.  Skipped on
single-core machines, where a process pool can only add overhead.
"""

import os
import time

import pytest

from conftest import horizon
from repro.experiments.scenarios import get_scenario, run_scenario

pytestmark = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="speedup needs at least 2 cores",
)


def test_parallel_speedup_smoke():
    jobs = os.cpu_count() or 1

    def sweep(workers):
        started = time.perf_counter()
        result = run_scenario(
            get_scenario("exp1-granularity"),
            replications=1,
            horizon_hours=horizon(0.5),
            warmup_fraction=0.0,
            jobs=workers,
        )
        return result.envelope(), time.perf_counter() - started

    serial, serial_elapsed = sweep(1)
    parallel, parallel_elapsed = sweep(jobs)

    assert serial == parallel
    assert not serial["failures"]
    speedup = serial_elapsed / parallel_elapsed
    print(
        f"\njobs={jobs}: serial {serial_elapsed:.1f}s, "
        f"parallel {parallel_elapsed:.1f}s, speedup {speedup:.2f}x"
    )
    # Conservative floor: spawn startup and result pickling eat into the
    # ideal jobs-fold speedup, but with >= 2 cores and 32 runs the pool
    # must still clearly win.
    floor = min(1.5, 0.5 * jobs)
    assert speedup >= floor, (
        f"parallel sweep only {speedup:.2f}x faster "
        f"(floor {floor:.2f}x with jobs={jobs})"
    )
