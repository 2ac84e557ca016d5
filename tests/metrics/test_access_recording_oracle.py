"""The client's per-pass read tallies against per-access recording.

A client hands each pass of reads (a probe, a round's deferred misses,
a degraded answer) to its metrics as one tally.  The oracle here
rebuilds every client's series from its ``CacheAccess`` events, one
``BucketedSeries.record`` per event, by the per-access rule:

* the hit series gets every access;
* the error series gets every answered read;
* the disconnected-error series gets every answered read made while
  disconnected.

Counts, bucket order and the ``float.hex`` of every bucket sum must
equal the client's own series, and the stale-serve and unanswered
counters must equal the events' counts.  The three runs cover the
eager, deferred, degraded, stale-serve and unanswered paths and cross
a bucket boundary.
"""

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import Simulation
from repro.metrics.collectors import DEFAULT_SERIES_BUCKET
from repro.metrics.stats import BucketedSeries
from repro.obs.events import CacheAccess

CONFIGS = {
    "default": SimulationConfig(horizon_hours=1.0),
    # Retry exhaustion serves deferred misses stale or leaves them
    # unanswered.
    "lossy-recovery": SimulationConfig(
        num_clients=30,
        horizon_hours=0.6,
        loss_rate=0.05,
        request_timeout_seconds=20.0,
        retry_budget=2,
    ),
    # Cut-off clients serve expired entries and leave the rest
    # unanswered.
    "disconnection": SimulationConfig(
        horizon_hours=2.0, disconnected_clients=5, disconnection_hours=1.0
    ),
}


def per_access_series(events):
    hit = BucketedSeries(DEFAULT_SERIES_BUCKET)
    error = BucketedSeries(DEFAULT_SERIES_BUCKET)
    disconnected_error = BucketedSeries(DEFAULT_SERIES_BUCKET)
    for event in events:
        hit.record(event.time, event.hit)
        if event.answered:
            error.record(event.time, event.error)
            if not event.connected:
                disconnected_error.record(event.time, event.error)
    return {
        "hit": hit,
        "error": error,
        "disconnected_error": disconnected_error,
    }


def buckets(series):
    return [
        (bucket, count, series._sums[bucket].hex())
        for bucket, count in series._counts.items()
    ]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pass_tallies_match_per_access_recording(name):
    sim = Simulation(CONFIGS[name])
    events: dict[int, list[CacheAccess]] = {}
    sim.bus.subscribe(
        CacheAccess,
        lambda event: events.setdefault(event.client_id, []).append(event),
    )
    sim.run()

    for client in sim.clients:
        metrics = client.metrics
        mine = events.get(client.client_id, [])
        oracle = per_access_series(mine)
        for label, expected in oracle.items():
            assert buckets(getattr(metrics, label)) == buckets(expected), (
                client.client_id,
                label,
            )
        assert metrics.stale_served_accesses == sum(
            event.stale_served for event in mine
        )
        assert metrics.unanswered_accesses == sum(
            not event.answered for event in mine
        )

    # Each run reaches the paths it is here for.
    every = [event for mine in events.values() for event in mine]
    summary = [client.metrics for client in sim.clients]
    assert len({int(e.time // DEFAULT_SERIES_BUCKET) for e in every}) > 1
    assert any(e.hit for e in every) and any(e.error for e in every)
    if name == "default":
        assert all(e.answered and e.connected for e in every)
    else:
        assert any(e.stale_served for e in every)
        assert any(not e.answered for e in every)
    if name == "lossy-recovery":
        assert sum(m.degraded_queries for m in summary) > 0
    if name == "disconnection":
        assert any(e.error and not e.connected for e in every)
