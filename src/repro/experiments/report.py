"""Plain-text rendering of scenario results, figure by figure."""

from __future__ import annotations

import typing as t

if t.TYPE_CHECKING:
    from repro.experiments.scenarios.run import ScenarioResult
    from repro.metrics.stats import MetricStats

#: Metric -> column header.
_HEADERS: dict[str, str] = {
    "hit_ratio": "hit",
    "response_time": "resp(s)",
    "error_rate": "err",
    "disconnected_error_rate": "disc-err",
    "uplink_bytes": "up-bytes",
    "drops": "drops",
    "retries": "retries",
    "timeouts": "timeouts",
    "degraded": "degraded",
}

#: Metric -> (mean, half-width) format specs; counters use the default.
_FORMATS: dict[str, tuple[str, str]] = {
    "hit_ratio": ("6.2%", "5.2%"),
    "response_time": ("7.3f", "6.3f"),
    "error_rate": ("6.2%", "5.2%"),
    "disconnected_error_rate": ("6.2%", "5.2%"),
    "uplink_bytes": ("9.0f", "7.0f"),
}
_DEFAULT_FORMAT = ("9.1f", "7.1f")


def _ci_cell(metric: str, stat: "MetricStats", replicated: bool) -> str:
    """``mean ±half-width``; a single replication shows the mean only."""
    mean_spec, half_spec = _FORMATS.get(metric, _DEFAULT_FORMAT)
    text = format(stat.mean, mean_spec)
    if replicated:
        text += f" ±{format(stat.half_width, half_spec)}"
    return text


def render_ci_rows(
    result: "ScenarioResult",
    metrics: t.Sequence[str] = (
        "hit_ratio", "response_time", "uplink_bytes",
    ),
) -> str:
    """Aligned text table of a replicated scenario: mean ± half-width.

    One line per cell; the header notes the replication count, warm-up
    fraction and confidence level so a table is self-describing.  A
    one-replication result has no interval, so its cells show the mean
    alone.
    """
    replicated = result.replications > 1
    dimensions = (
        list(result.cells[0].dims) if result.cells else []
    )
    widths = [
        max(
            len(dimension),
            max(
                (
                    len(str(cell.dims.get(dimension, "")))
                    for cell in result.cells
                ),
                default=0,
            ),
        )
        for dimension in dimensions
    ]
    cell_widths = [
        max(
            len(_HEADERS[m]),
            max(
                (
                    len(_ci_cell(m, c.stats[m], replicated))
                    for c in result.cells
                ),
                default=0,
            ),
        )
        for m in metrics
    ]
    lines = [
        result.scenario.title,
        (
            f"{result.replications} replication(s), "
            f"warm-up {result.warmup_fraction:.0%}, "
            f"{result.confidence:.0%} confidence, "
            f"{result.horizon_hours:g} h horizon"
        ),
        "",
    ]
    header = "  ".join(
        cell.ljust(width)
        for cell, width in zip(dimensions, widths, strict=True)
    )
    header += "  " + "  ".join(
        _HEADERS[m].rjust(width)
        for m, width in zip(metrics, cell_widths, strict=True)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for cell in result.cells:
        label = "  ".join(
            str(cell.dims.get(dimension, "")).ljust(width)
            for dimension, width in zip(dimensions, widths, strict=True)
        )
        values = "  ".join(
            _ci_cell(m, cell.stats[m], replicated).rjust(width)
            for m, width in zip(metrics, cell_widths, strict=True)
        )
        lines.append(f"{label}  {values}")
    if result.failures:
        lines.append("")
        lines.append(f"{len(result.failures)} run(s) FAILED:")
        for failure in result.failures:
            lines.append(f"  {failure.label}")
    return "\n".join(lines)
