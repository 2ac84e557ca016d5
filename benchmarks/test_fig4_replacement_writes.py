"""Figure 4 — replacement policies with writes (Experiment #3).

Same sweep as Figure 3 under U = 0.1 with 10 clients.  Shapes: hit
ratios drop versus the read-only case (expired items must be
re-fetched), and Bursty responses exceed Poisson's because results
queue on the shared downlink during bursts.
"""

from conftest import horizon, value
from repro import SimulationConfig, run_simulation

POLICIES = ("lru", "lru-3", "lrd", "mean", "window-10", "ewma-0.5")


def test_fig4_replacement_writes(figure_bench):
    hours = horizon(4.0)
    records = figure_bench(
        "exp3-replacement-rw", hours,
        metrics=("hit_ratio", "response_time"),
    )

    # Writes depress hit ratios: compare the EWMA cell against a
    # read-only twin run at the same horizon.
    with_writes = value(
        records,
        "hit_ratio",
        policy="ewma-0.5", heat="SH", query_kind="AQ", arrival="poisson",
    )
    read_only = run_simulation(
        SimulationConfig(
            granularity="HC",
            replacement="ewma-0.5",
            update_probability=0.0,
            horizon_hours=hours,
        )
    ).hit_ratio
    assert with_writes < read_only

    # Bursty responses exceed Poisson's, most visibly for NQ.  Only
    # assertable once the horizon reaches the first 07:00 burst; shorter
    # smoke horizons sit entirely in the overnight lull.
    if hours >= 10.0:
        for policy in POLICIES:
            poisson = value(
                records,
                "response_time",
                policy=policy, heat="SH", query_kind="NQ",
                arrival="poisson",
            )
            bursty = value(
                records,
                "response_time",
                policy=policy, heat="SH", query_kind="NQ",
                arrival="bursty",
            )
            assert bursty > poisson

    # Every policy still clears a sane hit-ratio band under writes.
    for record in records:
        if record["query_kind"] == "AQ" and record["arrival"] == "poisson":
            assert 0.15 < record["hit_ratio"] < 0.9
