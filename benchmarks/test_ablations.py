"""Ablations of the design choices DESIGN.md Section 6 calls out.

Each benchmark flips one mechanism and regenerates a small comparison,
showing what the mechanism buys:

* **prefetch threshold floor** — the literal ``mu - 2 sigma`` rule is
  vacuous under skew (negative threshold admits everything); the
  uniform-share floor keeps HC's transfers near AC's;
* **split prefetch delivery** — trailing prefetches keeps HC's response
  time at AC level; inline delivery pays for every prefetched byte;
* **attribute-entry overhead** — the cache-table cost of attribute
  granularity; without it AC's effective capacity is overstated;
* **young-key penalty** — duration schemes need it to stop cold
  insertions from squatting while honest hot estimates get evicted;
* **existent list** — suppressing retransmission of locally satisfied
  items cuts downlink bytes.
"""

from conftest import horizon
from repro import SimulationConfig
from repro.experiments.runner import Simulation, run_simulation

HOURS_FAST = 4.0


def _hours():
    return horizon(HOURS_FAST)


def test_ablation_prefetch_floor():
    """Floored threshold must prefetch less and respond faster."""
    floored = run_simulation(
        SimulationConfig(
            granularity="HC",
            prefetch_floor_at_uniform=True,
            horizon_hours=_hours(),
        )
    )
    literal = run_simulation(
        SimulationConfig(
            granularity="HC",
            prefetch_floor_at_uniform=False,
            horizon_hours=_hours(),
        )
    )
    print()
    print(f"floored : pf={floored.items_prefetched:7d} "
          f"resp={floored.response_time:6.3f}s hit={floored.hit_ratio:.2%}")
    print(f"literal : pf={literal.items_prefetched:7d} "
          f"resp={literal.response_time:6.3f}s hit={literal.hit_ratio:.2%}")
    assert floored.items_prefetched < literal.items_prefetched
    # More aggressive prefetching should at least not help responses.
    assert floored.response_time <= literal.response_time * 1.10


def test_ablation_split_delivery():
    """Trailing prefetch delivery must beat inline delivery on response."""
    split = run_simulation(
        SimulationConfig(
            granularity="HC",
            prefetch_split_delivery=True,
            horizon_hours=_hours(),
        )
    )
    inline = run_simulation(
        SimulationConfig(
            granularity="HC",
            prefetch_split_delivery=False,
            horizon_hours=_hours(),
        )
    )
    print()
    print(f"split  : resp={split.response_time:6.3f}s "
          f"hit={split.hit_ratio:.2%}")
    print(f"inline : resp={inline.response_time:6.3f}s "
          f"hit={inline.hit_ratio:.2%}")
    assert split.response_time < inline.response_time
    # Hit ratios stay comparable — delivery only changes timing.
    assert abs(split.hit_ratio - inline.hit_ratio) < 0.05


def test_ablation_attribute_entry_overhead():
    """Zero cache-table overhead inflates AC's effective capacity."""
    with_overhead = run_simulation(
        SimulationConfig(
            granularity="AC",
            attribute_entry_overhead_bytes=40,
            horizon_hours=_hours(),
        )
    )
    without = run_simulation(
        SimulationConfig(
            granularity="AC",
            attribute_entry_overhead_bytes=0,
            horizon_hours=_hours(),
        )
    )
    print()
    print(f"overhead=40B: hit={with_overhead.hit_ratio:.2%}")
    print(f"overhead=0B : hit={without.hit_ratio:.2%}")
    assert without.hit_ratio >= with_overhead.hit_ratio


def test_ablation_young_penalty():
    """Without the young penalty, cold insertions squat in the cache."""

    def run_with_penalty(penalty):
        simulation = Simulation(
            SimulationConfig(
                granularity="HC",
                replacement="mean",
                update_probability=0.0,
                num_clients=1,
                horizon_hours=horizon(8.0),
            )
        )
        for client in simulation.clients:
            client.cache.policy.young_penalty = penalty
        return simulation.run()

    penalised, naive = run_with_penalty(3.0), run_with_penalty(1.0)
    print()
    print(f"young_penalty=3: hit={penalised.hit_ratio:.2%}")
    print(f"young_penalty=1: hit={naive.hit_ratio:.2%}")
    assert penalised.hit_ratio > naive.hit_ratio


def test_ablation_existent_list():
    """Existent/held lists stop the prefetcher from re-shipping items
    the client already holds, saving downlink bytes under HC."""
    from repro.client.mobile_client import MobileClient

    results = {}
    original = MobileClient._probe
    for informed in (True, False):
        if not informed:
            def probe_uninformed(self, query, connected, _orig=original):
                result = _orig(self, query, connected)
                result.existent = []
                result.held = []
                return result

            MobileClient._probe = probe_uninformed
        try:
            simulation = Simulation(
                SimulationConfig(granularity="HC", horizon_hours=_hours())
            )
            simulation.run()
            results[informed] = simulation.network.bytes_downstream
        finally:
            MobileClient._probe = original
    print()
    print(f"with existent/held lists    : {results[True]:>12,.0f} B down")
    print(f"without existent/held lists : {results[False]:>12,.0f} B down")
    assert results[True] < results[False]


def test_ablation_ewma_alpha_sensitivity():
    """alpha trades adaptivity for stability; 0.5 is the paper's pick."""
    results = {
        alpha: run_simulation(
            SimulationConfig(
                granularity="HC",
                replacement=f"ewma-{alpha}",
                heat="CSH",
                csh_change_every=100,
                update_probability=0.0,
                num_clients=1,
                horizon_hours=horizon(12.0),
            )
        )
        for alpha in (0.1, 0.5, 0.9)
    }
    print()
    for alpha, result in sorted(results.items()):
        print(f"ewma-{alpha}: hit={result.hit_ratio:.2%}")
    for result in results.values():
        assert 0.1 < result.hit_ratio < 0.95


def test_ablation_window_size():
    """Window size trades memory for smoothing."""
    results = {
        window: run_simulation(
            SimulationConfig(
                granularity="HC",
                replacement=f"window-{window}",
                update_probability=0.0,
                num_clients=1,
                horizon_hours=horizon(8.0),
            )
        )
        for window in (2, 10, 50)
    }
    print()
    for window, result in sorted(results.items()):
        print(f"window-{window}: hit={result.hit_ratio:.2%}")
    for result in results.values():
        assert 0.2 < result.hit_ratio < 0.95
