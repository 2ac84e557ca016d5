#!/usr/bin/env python3
"""Refresh times vs invalidation reports: the coherence trade-off.

The paper's lazy refresh-time scheme accepts a bounded amount of
staleness in exchange for working through disconnections; broadcast
invalidation reports (the scheme of the paper's reference [2]) keep
caches fresh but force a client that missed a report to purge its whole
cache.  This example runs both strategies, connected and with half the
clients disconnected, and prints the trade-off — plus the effect of the
IR broadcast period.

Run:  python examples/coherence_comparison.py [simulated-hours]
"""

import sys

from repro import SimulationConfig
from repro.experiments.runner import Simulation


def run(coherence, hours, disconnected=False, ir_interval=1000.0):
    config = SimulationConfig(
        granularity="HC",
        coherence=coherence,
        ir_interval_seconds=ir_interval,
        horizon_hours=hours,
        disconnected_clients=5 if disconnected else 0,
        disconnection_hours=hours / 3 if disconnected else 0.0,
        seed=17,
    )
    simulation = Simulation(config)
    result = simulation.run()
    purges = sum(
        client.invalidation.cache_purges
        for client in simulation.clients
        if client.invalidation is not None
    )
    broadcast_bytes = simulation.network.broadcast.stats.bytes_carried
    return result, purges, broadcast_bytes


def main() -> None:
    hours = float(sys.argv[1]) if len(sys.argv) > 1 else 6.0
    print(f"Coherence strategies over {hours:g} simulated hours\n")

    print(f"{'strategy':<22} {'mode':<6} {'hit':>8} {'err':>8} "
          f"{'purges':>7} {'IR bytes':>10}")
    for disconnected in (False, True):
        mode = "disc" if disconnected else "conn"
        for coherence in ("refresh-time", "invalidation-report"):
            result, purges, bytes_ = run(coherence, hours, disconnected)
            print(
                f"{coherence:<22} {mode:<6} {result.hit_ratio:8.2%} "
                f"{result.error_rate:8.2%} {purges:7d} {bytes_:10,.0f}"
            )
    print()

    print("IR broadcast period sweep (connected):")
    print(f"{'interval(s)':>12} {'hit':>8} {'err':>8} {'IR bytes':>10}")
    for interval in (250.0, 1000.0, 4000.0):
        result, __, bytes_ = run(
            "invalidation-report", hours, ir_interval=interval
        )
        print(
            f"{interval:12.0f} {result.hit_ratio:8.2%} "
            f"{result.error_rate:8.2%} {bytes_:10,.0f}"
        )
    print()
    print("Longer periods save broadcast bandwidth but widen the window")
    print("of staleness between reports — and make the amnesia rule purge")
    print("sooner after any disconnection.")


if __name__ == "__main__":
    main()
