"""The Experiment #3 timeout heuristic, evaluated.

The paper observes that under bursty arrivals "the results will be
queued up at the downstream channel" and proposes a timeout heuristic:
terminate the delivery of prefetched items when the queue backs up
("We will report more on the effect of this heuristic in the future").
This benchmark is that report: with the heuristic enabled, HC sheds
prefetch trailers during bursts, cutting NQ response times under bursty
arrivals while barely moving the hit ratio.
"""

from conftest import horizon
from repro import SimulationConfig
from repro.experiments.runner import Simulation


def _run(threshold):
    config = SimulationConfig(
        granularity="HC",
        query_kind="NQ",
        arrival="bursty",
        trailer_drop_queue_threshold=threshold,
        horizon_hours=horizon(12.0),
    )
    simulation = Simulation(config)
    result = simulation.run()
    return result, simulation.server.trailers_dropped


def test_timeout_heuristic_sheds_burst_load():
    results = {"off": _run(None), "on": _run(2)}
    print()
    for label, (result, dropped) in results.items():
        print(
            f"heuristic {label:>3}: resp={result.response_time:8.3f}s "
            f"hit={result.hit_ratio:7.2%} trailers_dropped={dropped}"
        )

    without, __ = results["off"]
    with_heuristic, dropped = results["on"]
    assert dropped > 0
    assert with_heuristic.response_time < without.response_time
    # Shedding prefetches costs only a little hit ratio.
    assert with_heuristic.hit_ratio > without.hit_ratio - 0.08
