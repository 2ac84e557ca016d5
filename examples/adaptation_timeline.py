#!/usr/bin/env python3
"""Watching replacement policies adapt to a hot-set change.

The paper's Experiment #4 compares policies on the changing-skewed-heat
pattern through aggregate hit ratios.  This example shows the *dynamics*
instead: the hit ratio over time, as terminal sparklines, for LRU, Mean
and EWMA-0.5 across CSH hot-set changes.  Mean never recovers after a
change (its estimates keep full history forever); EWMA's anticipated
estimates shed the stale hot set and climb back; LRU adapts instantly
but never reaches the duration schemes' steady-state level.

Run:  python examples/adaptation_timeline.py [simulated-hours]
"""

import sys

from repro import SimulationConfig
from repro._units import HOUR
from repro.workload.arrivals import DEFAULT_ARRIVAL_RATE
from repro.experiments.runner import Simulation

POLICIES = ("lru", "mean", "ewma-0.5")


def main() -> None:
    hours = float(sys.argv[1]) if len(sys.argv) > 1 else 48.0
    # A single read-only client makes the dynamics cleanest; the hot set
    # changes every `change_every` of its queries.
    change_every = 300
    print(
        f"CSH adaptation timelines ({hours:g} h, hot set re-picked every "
        f"{change_every} queries ≈ every "
        f"{change_every / DEFAULT_ARRIVAL_RATE / HOUR:.1f} h)\n"
    )
    for policy in POLICIES:
        simulation = Simulation(
            SimulationConfig(
                granularity="HC",
                replacement=policy,
                heat="CSH",
                csh_change_every=change_every,
                update_probability=0.0,
                num_clients=1,
                horizon_hours=hours,
                seed=31,
            )
        )
        result = simulation.run()
        series = result.summary.hit
        print(f"{policy:>10}  |{series.sparkline(width=64)}|  "
              f"overall {result.hit_ratio:.2%}")
    print()
    print("(each column is a slice of simulated time; bar height = hit "
          "ratio)")


if __name__ == "__main__":
    main()
