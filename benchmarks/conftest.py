"""Shared benchmark plumbing.

Each benchmark regenerates one of the paper's tables/figures: it runs
the figure's registered scenario once — one replication at seed 42, no
warm-up, the paper's single-run table — prints the figure's rows, and
asserts the qualitative shape the paper reports on the envelope
records.  Timing lives in ``bench/`` (see ``BENCHMARK.json``), not here.

Default horizons are reduced so ``pytest -m bench benchmarks/``
finishes in minutes; set ``REPRO_FULL=1`` for the paper's 96 h horizon
(and the stricter shape assertions that only emerge at that scale).
"""

import os
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import pytest  # noqa: E402


def pytest_collection_modifyitems(items):
    """Everything under benchmarks/ carries the ``bench`` marker.

    The default addopts exclude the marker, keeping tier-1 runs fast;
    CI selects it explicitly with ``-m bench``.  The hook receives the
    whole session's items, so scope the marker to this directory —
    mixed invocations like ``pytest tests benchmarks`` must not drag
    unit tests into the bench tier.
    """
    root = Path(__file__).resolve().parent
    for item in items:
        if Path(item.fspath).is_relative_to(root):
            item.add_marker(pytest.mark.bench)


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL", "") == "1"


def horizon(fast_hours: float) -> float:
    return 96.0 if full_scale() else fast_hours


@pytest.fixture()
def figure_bench():
    """Run one paper scenario once, print it, return its records."""
    from repro.experiments.report import render_ci_rows
    from repro.experiments.scenarios import get_scenario, run_scenario

    def run(name, hours, metrics=("hit_ratio", "response_time", "error_rate")):
        result = run_scenario(
            get_scenario(name),
            replications=1,
            horizon_hours=hours,
            warmup_fraction=0.0,
            seed=42,
        )
        assert not result.failures
        print()
        print(render_ci_rows(result, metrics))
        return result.envelope()["records"]

    return run


def value(records, metric, **dims):
    """The ``metric`` of the single envelope record matching ``dims``."""
    matching = [
        record
        for record in records
        if all(record[name] == want for name, want in dims.items())
    ]
    assert len(matching) == 1, f"{len(matching)} records match {dims!r}"
    return matching[0][metric]
