"""Coherence baselines: refresh-time vs invalidation reports.

The paper argues (Section 2) that broadcast invalidation reports — the
scheme of reference [2] — fit a mobile environment poorly: a client must
keep listening, and one missed report while disconnected invalidates its
whole cache.  The paper's lazy refresh-time scheme trades a bounded
amount of staleness for availability instead.  This benchmark implements
both and measures the trade:

* connected operation — IR delivers far fewer stale reads (errors) at a
  modest hit-ratio cost (invalidated entries miss);
* disconnected operation — IR's amnesia rule purges caches after missed
  reports, so its hit ratio falls well below refresh-time's while
  refresh-time keeps answering (with bounded staleness).
"""

from conftest import horizon
from repro import SimulationConfig
from repro.experiments.runner import Simulation


def _run(coherence, disconnected=False):
    hours = horizon(6.0)
    config = SimulationConfig(
        granularity="HC",
        coherence=coherence,
        horizon_hours=hours,
        disconnected_clients=5 if disconnected else 0,
        disconnection_hours=hours / 3 if disconnected else 0.0,
    )
    simulation = Simulation(config)
    result = simulation.run()
    purges = sum(
        client.invalidation.cache_purges
        for client in simulation.clients
        if client.invalidation is not None
    )
    return result, purges


def test_coherence_baseline_tradeoff():
    results = {
        ("refresh-time", False): _run("refresh-time"),
        ("invalidation-report", False): _run("invalidation-report"),
        ("refresh-time", True): _run("refresh-time", True),
        ("invalidation-report", True): _run("invalidation-report", True),
    }
    print()
    for (coherence, disconnected), (result, purges) in results.items():
        tag = "disc" if disconnected else "conn"
        print(
            f"{coherence:<20} [{tag}]: hit={result.hit_ratio:7.2%} "
            f"err={result.error_rate:7.2%} purges={purges}"
        )

    rt_conn, __ = results[("refresh-time", False)]
    ir_conn, __ = results[("invalidation-report", False)]
    rt_disc, __ = results[("refresh-time", True)]
    ir_disc, ir_purges = results[("invalidation-report", True)]

    # Connected: IR trades hits for freshness.
    assert ir_conn.error_rate < rt_conn.error_rate
    assert ir_conn.hit_ratio <= rt_conn.hit_ratio + 0.02

    # Disconnected: the amnesia rule actually fires and costs hits.
    assert ir_purges > 0
    assert ir_disc.hit_ratio < rt_disc.hit_ratio
    # Refresh-time keeps availability at the price of stale reads.
    assert rt_disc.error_rate > ir_disc.error_rate
