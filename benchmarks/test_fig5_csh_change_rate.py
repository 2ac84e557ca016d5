"""Figure 5 — adaptivity versus the CSH change rate (Experiment #4).

LRU, LRU-3, LRD and EWMA-0.5 on the changing-skewed-heat pattern with
hot-set change rates of 300/500/700 queries.  The paper's finding:
recency-based schemes hold their own when the hot set changes fast,
while EWMA-0.5 pulls ahead once the change rate slows past 500.

A hot-set era lasts 8-19 *hours* of client time at these change rates,
so the crossover only materialises at the paper-scale horizon
(REPRO_FULL=1); the reduced run still regenerates the full grid and
checks coarse sanity.
"""

from conftest import full_scale, horizon, value

POLICIES = ("lru", "lru-3", "lrd", "ewma-0.5")


def test_fig5_change_rates(figure_bench):
    hours = horizon(12.0)
    records = figure_bench(
        "exp4-change-rates", hours,
        metrics=("hit_ratio", "response_time"),
    )

    assert len(records) == 12
    for record in records:
        assert 0.1 < record["hit_ratio"] < 0.95
        assert record["response_time"] > 0

    # Faster change rates can only hurt (or leave unchanged) a policy's
    # hit ratio.
    for policy in POLICIES:
        fast = value(records, "hit_ratio", policy=policy, change_rate=300)
        slow = value(records, "hit_ratio", policy=policy, change_rate=700)
        assert fast <= slow + 0.05

    if full_scale():
        # The paper's crossover: EWMA-0.5 best at slow change rates.
        ewma = value(
            records, "hit_ratio", policy="ewma-0.5", change_rate=700
        )
        assert ewma >= value(
            records, "hit_ratio", policy="lru", change_rate=700
        )
        assert ewma >= value(
            records, "hit_ratio", policy="lrd", change_rate=700
        )
