"""Figure 3 — replacement policies, read-only best case (Experiment #2).

One client, U = 0, HC granularity.  The paper's shapes: on SH the Mean
and EWMA-0.5 duration schemes capture more of the hot set than LRU/LRD;
on CSH the Mean scheme collapses (it never forgets) while EWMA-0.5
adapts best of the paper's schemes; NQ responses are about twice AQ's.
"""

from conftest import full_scale, horizon, value

POLICIES = ("lru", "lru-3", "lrd", "mean", "window-10", "ewma-0.5")


def test_fig3_replacement_readonly(figure_bench):
    hours = horizon(8.0)
    records = figure_bench(
        "exp2-replacement-ro", hours,
        metrics=("hit_ratio", "response_time"),
    )

    def hit(policy, heat="SH", kind="AQ"):
        return value(
            records,
            "hit_ratio",
            policy=policy,
            heat=heat,
            query_kind=kind,
            arrival="poisson",
        )

    # SH: the duration schemes (Mean/EWMA) beat LRU and LRD.
    assert max(hit("mean"), hit("ewma-0.5")) > hit("lru")
    assert max(hit("mean"), hit("ewma-0.5")) > hit("lrd")

    # NQ responses roughly double AQ's (selectivity doubles).
    for policy in POLICIES:
        aq = value(
            records,
            "response_time",
            policy=policy, heat="SH", query_kind="AQ", arrival="poisson",
        )
        nq = value(
            records,
            "response_time",
            policy=policy, heat="SH", query_kind="NQ", arrival="poisson",
        )
        assert nq > 1.4 * aq

    if full_scale():
        # CSH era changes only bite at the 96 h horizon (an era is ~14 h
        # of client time at the default change rate).
        assert hit("mean", heat="CSH") < hit("lru", heat="CSH")
        assert hit("ewma-0.5", heat="CSH") > hit("lru", heat="CSH")
        assert hit("ewma-0.5", heat="CSH") > hit("lrd", heat="CSH")
        assert hit("ewma-0.5", heat="CSH") > hit("mean", heat="CSH")
