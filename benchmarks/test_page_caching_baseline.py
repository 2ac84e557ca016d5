"""Page caching: the conventional baseline the paper argues against.

Section 2: "database items within a page at a database server barely
exhibit any degree of locality [for mobile clients] ... the overhead of
transmitting a page over a low bandwidth wireless channel would be too
expensive to be justified."  This benchmark quantifies that claim: PC
transfers whole 4 KB pages per missed object over the 19.2 kbps channel,
saturating it, while the hit ratio *loses* to plain object caching
because page-mates waste cache capacity.
"""

from conftest import horizon
from repro import SimulationConfig, run_simulation


def test_page_caching_loses_to_object_caching():
    hours = horizon(3.0)
    results = {
        granularity: run_simulation(
            SimulationConfig(granularity=granularity, horizon_hours=hours)
        )
        for granularity in ("AC", "OC", "PC")
    }
    print()
    for granularity, result in results.items():
        print(
            f"{granularity}: hit={result.hit_ratio:7.2%} "
            f"resp={result.response_time:10.3f}s "
            f"down-util={result.downlink_utilization:6.2%}"
        )

    oc = results["OC"]
    pc = results["PC"]
    ac = results["AC"]

    # Page transfers overwhelm the wireless downlink...
    assert pc.response_time > 3 * oc.response_time
    assert pc.downlink_utilization > oc.downlink_utilization
    # ...without buying hits: page-mates squander cache capacity.
    assert pc.hit_ratio < oc.hit_ratio
    # And the paper's own granularities beat it comprehensively.
    assert ac.response_time < pc.response_time / 10
