"""Table 1 — parameter settings of the experiments.

The paper's Table 1 summarises which values every experimental dimension
takes in each of the six experiments.  :func:`table1_rows` regenerates
it from the registered scenario specs themselves, so the table can never
drift from what the code actually runs.
"""

from __future__ import annotations

import typing as t

from repro.experiments.scenarios.registry import get_scenario, scenarios


def _fmt(values: t.Iterable[t.Any]) -> str:
    return ", ".join(str(v) for v in values)


def _sweep(scenario: str, dimension: str) -> str:
    """The formatted values one scenario sweeps along one dimension."""
    for swept in get_scenario(scenario).sweep:
        if swept.name == dimension:
            return _fmt(swept.values)
    raise KeyError(f"scenario {scenario!r} sweeps no {dimension!r}")


def table1_rows() -> list[dict[str, str]]:
    """One row per experiment: the sweep each dimension takes."""
    return [
        {
            "experiment": "#1 (Fig 2)",
            "G": _sweep("exp1-granularity", "granularity"),
            "A": _sweep("exp1-granularity", "heat"),
            "Q": _sweep("exp1-granularity", "query_kind"),
            "R_disk": "ewma-0.5",
            "P": _sweep("exp1-granularity", "arrival"),
            "U": "0.1",
            "D/V": "none",
        },
        {
            "experiment": "#2 (Fig 3)",
            "G": "HC",
            "A": _sweep("exp2-replacement-ro", "heat"),
            "Q": _sweep("exp2-replacement-ro", "query_kind"),
            "R_disk": _sweep("exp2-replacement-ro", "policy"),
            "P": _sweep("exp2-replacement-ro", "arrival"),
            "U": "0 (1 client)",
            "D/V": "none",
        },
        {
            "experiment": "#3 (Fig 4)",
            "G": "HC",
            "A": _sweep("exp3-replacement-rw", "heat"),
            "Q": _sweep("exp3-replacement-rw", "query_kind"),
            "R_disk": _sweep("exp3-replacement-rw", "policy"),
            "P": _sweep("exp3-replacement-rw", "arrival"),
            "U": "0.1 (10 clients)",
            "D/V": "none",
        },
        {
            "experiment": "#4 (Fig 5+6)",
            "G": "HC",
            "A": "CSH 300/500/700, cyclic",
            "Q": "AQ",
            "R_disk": _sweep("exp4-change-rates", "policy"),
            "P": "poisson",
            "U": "0.1",
            "D/V": "none",
        },
        {
            "experiment": "#5 (Fig 7)",
            "G": _sweep("exp5-coherence", "granularity"),
            "A": "SH",
            "Q": "AQ",
            "R_disk": "ewma-0.5",
            "P": "poisson",
            "U": _sweep("exp5-coherence", "update_probability")
            + f"; beta {_sweep('exp5-coherence', 'beta')}",
            "D/V": "none",
        },
        {
            "experiment": "#6 (Fig 8)",
            "G": _sweep("exp6-durations", "granularity"),
            "A": "SH",
            "Q": "AQ",
            "R_disk": "ewma-0.5",
            "P": "poisson",
            "U": "0.1",
            "D/V": (
                f"D {_sweep('exp6-durations', 'duration_hours')} h; "
                f"V {_sweep('exp6-client-counts', 'disconnected_clients')}"
            ),
        },
    ]


def render_scenarios() -> str:
    """Plain-text listing of the registered scenarios."""
    entries = scenarios()
    name_width = max(len(s.name) for s in entries)
    lines = []
    for scenario in entries:
        cells = 1
        for dimension in scenario.sweep:
            cells *= len(dimension.values)
        lines.append(
            f"{scenario.name.ljust(name_width)}  "
            f"{cells:>3} cells x {scenario.replications} reps  "
            f"warm-up {scenario.warmup_fraction:.0%}  "
            f"{scenario.title}"
        )
    return "\n".join(lines)


def render_table1() -> str:
    """Plain-text rendering of Table 1."""
    rows = table1_rows()
    columns = ["experiment", "G", "A", "Q", "R_disk", "P", "U", "D/V"]
    widths = {
        column: max(len(column), max(len(row[column]) for row in rows))
        for column in columns
    }
    lines = [
        "  ".join(column.ljust(widths[column]) for column in columns),
        "  ".join("-" * widths[column] for column in columns),
    ]
    for row in rows:
        lines.append(
            "  ".join(row[column].ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)
