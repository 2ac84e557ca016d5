"""Execute a replication plan and aggregate per-cell statistics.

The runner fans a :class:`~repro.experiments.scenarios.plan.ReplicationPlan`
through the existing :class:`~repro.experiments.parallel.ParallelExecutor`
(inheriting its determinism contract: bit-identical at any worker
count, declaration order out, crash isolation), truncates every
replication's time series at the warm-up boundary, and folds the
post-warm-up metrics into per-cell means with Student-t confidence
half-widths.

Truncation happens at bucket granularity: the measurement window is
``[warmup_fraction * horizon, horizon)`` and a time-series bucket
belongs to the window iff its *start* does, so any non-zero warm-up
discards at least the first bucket (1800 s wide by default).  The
counters (queries, drops, retries, ...) and the disconnected error
rate aggregate whole-run values.

The envelope is the one experiment result type —
``results/reproduction.json`` holds one per paper scenario:
``{"metadata": ..., "records": [...], "failures": [...]}`` with one
flat record per cell (``<metric>`` mean plus ``<metric>_half_width``).
Wall-clock times and the worker count are deliberately excluded — the
envelope is a pure function of (scenario, horizon, seed, replications,
warm-up, confidence), so ``--jobs`` and execution order cannot perturb
a single byte of it.
"""

from __future__ import annotations

import dataclasses
import json
import typing as t

from repro.errors import StatisticsError
from repro.experiments.parallel import (
    ParallelExecutor,
    RunFailure,
    RunOutcome,
)
from repro.experiments.scenarios.plan import ReplicationPlan
from repro.experiments.scenarios.spec import Scenario
from repro.metrics.stats import (
    MetricStats,
    check_confidence,
    replication_ci,
    warmup_window,
)

if t.TYPE_CHECKING:
    from repro.experiments.runner import SimulationResult

#: Reported metrics, in record order.  The first four are warm-up
#: truncated; the rest aggregate whole-run counters.
METRICS: tuple[str, ...] = (
    "hit_ratio",
    "response_time",
    "error_rate",
    "uplink_bytes",
    "disconnected_error_rate",
    "queries",
    "drops",
    "retries",
    "timeouts",
    "degraded",
)


def replication_metrics(
    result: "SimulationResult", warmup_fraction: float
) -> dict[str, float]:
    """One replication's post-warm-up metric vector.

    Raises :class:`StatisticsError` when the window holds no samples —
    no accesses or no completed queries after warm-up means the
    scenario is mis-sized (warm-up too large for the horizon), and a
    fabricated 0.0 would silently corrupt the aggregate.
    """
    summary = result.summary
    start, end = warmup_window(
        result.config.horizon_seconds, warmup_fraction
    )
    if summary.hit.samples_between(start, end) == 0:
        raise StatisticsError(
            f"no cache accesses in the measurement window "
            f"[{start:g}s, {end:g}s) — warm-up fraction "
            f"{warmup_fraction!r} leaves nothing to measure at this "
            f"horizon"
        )
    if summary.response_series.samples_between(start, end) == 0:
        raise StatisticsError(
            f"no completed queries in the measurement window "
            f"[{start:g}s, {end:g}s) — warm-up fraction "
            f"{warmup_fraction!r} leaves nothing to measure at this "
            f"horizon"
        )
    return {
        "hit_ratio": summary.hit.mean_between(start, end),
        "response_time": summary.response_series.mean_between(start, end),
        "error_rate": summary.error.mean_between(start, end),
        "uplink_bytes": summary.uplink_series.sum_between(start, end),
        "disconnected_error_rate": summary.disconnected_error_rate,
        "queries": float(summary.total_queries),
        "drops": float(result.messages_dropped),
        "retries": float(result.retries),
        "timeouts": float(result.timeouts),
        "degraded": float(result.degraded_queries),
    }


@dataclasses.dataclass
class CellResult:
    """One cell's aggregated statistics across its replications."""

    dims: dict[str, t.Any]
    replications: int
    stats: dict[str, MetricStats]
    invariant_violations: "int | None" = None

    def record(self) -> dict[str, t.Any]:
        """The flat envelope record: dims, then mean/half-width pairs."""
        row: dict[str, t.Any] = dict(self.dims)
        row["replications"] = self.replications
        for metric in METRICS:
            stat = self.stats[metric]
            row[metric] = stat.mean
            row[f"{metric}_half_width"] = stat.half_width
        if self.invariant_violations is not None:
            row["invariant_violations"] = self.invariant_violations
        return row


@dataclasses.dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    scenario: Scenario
    horizon_hours: float
    base_seed: int
    replications: int
    warmup_fraction: float
    confidence: float
    cells: list[CellResult]
    failures: list[RunFailure] = dataclasses.field(default_factory=list)
    invariants: bool = False

    @property
    def total_invariant_violations(self) -> "int | None":
        if not self.invariants:
            return None
        return sum(cell.invariant_violations or 0 for cell in self.cells)

    def envelope(self) -> dict[str, t.Any]:
        """The deterministic JSON-shaped result envelope."""
        metadata: dict[str, t.Any] = {
            "scenario": self.scenario.name,
            "experiment_id": self.scenario.experiment_id,
            "title": self.scenario.title,
            "horizon_hours": self.horizon_hours,
            "base_seed": self.base_seed,
            "replications": self.replications,
            "warmup_fraction": self.warmup_fraction,
            "confidence": self.confidence,
            "cells": len(self.cells),
            "metrics": list(METRICS),
        }
        if self.invariants:
            metadata["invariant_violations"] = (
                self.total_invariant_violations
            )
        return {
            "metadata": metadata,
            "records": [cell.record() for cell in self.cells],
            "failures": [
                {
                    "dims": failure.dims,
                    "label": failure.label,
                    "traceback": failure.traceback,
                }
                for failure in self.failures
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.envelope(), indent=indent, sort_keys=False)


def collect_outcomes(
    plan: ReplicationPlan,
    outcomes: t.Sequence[RunOutcome],
    confidence: float = 0.95,
    warmup_fraction: "float | None" = None,
    invariants: bool = False,
) -> ScenarioResult:
    """Fold run outcomes into per-cell statistics.

    Outcomes are re-keyed by their declared index, so any arrival order
    (serial, pooled, even deliberately shuffled) collapses to the same
    result — the plan, not the scheduler, owns the structure.  A cell
    whose every replication failed has no record; its runs are listed
    in :attr:`ScenarioResult.failures` like any other crash.
    """
    warmup = (
        warmup_fraction
        if warmup_fraction is not None
        else plan.scenario.warmup_fraction
    )
    by_index = {outcome.index: outcome for outcome in outcomes}
    if len(by_index) != len(plan):
        raise ValueError(
            f"plan expects {len(plan)} outcomes, got {len(by_index)} "
            f"distinct indices"
        )
    cells: list[CellResult] = []
    failures: list[RunFailure] = []
    reps = plan.replications
    for cell_index, cell in enumerate(plan.cells):
        samples: dict[str, list[float]] = {m: [] for m in METRICS}
        violations: "int | None" = None
        completed = 0
        for replication in range(reps):
            outcome = by_index[cell_index * reps + replication]
            if not outcome.ok:
                failures.append(
                    RunFailure(
                        index=outcome.index,
                        dims=outcome.dims,
                        label=outcome.label,
                        traceback=t.cast(str, outcome.error),
                    )
                )
                continue
            completed += 1
            metrics = replication_metrics(outcome.result, warmup)
            for metric in METRICS:
                samples[metric].append(metrics[metric])
            report = outcome.result.invariants
            if report is not None:
                violations = (violations or 0) + report.total_violations
        if completed == 0:
            continue
        cells.append(
            CellResult(
                dims=cell.dims_dict(),
                replications=completed,
                stats={
                    metric: replication_ci(samples[metric], confidence)
                    for metric in METRICS
                },
                invariant_violations=violations,
            )
        )
    return ScenarioResult(
        scenario=plan.scenario,
        horizon_hours=plan.horizon_hours,
        base_seed=plan.base_seed,
        replications=reps,
        warmup_fraction=warmup,
        confidence=confidence,
        cells=cells,
        failures=failures,
        invariants=invariants,
    )


def run_scenario(
    scenario: Scenario,
    replications: "int | None" = None,
    horizon_hours: "float | None" = None,
    seed: int = 42,
    confidence: float = 0.95,
    warmup_fraction: "float | None" = None,
    jobs: "int | None" = None,
    progress: bool = False,
    invariants: bool = False,
    extra_base: "t.Mapping[str, t.Any] | None" = None,
) -> ScenarioResult:
    """Plan, execute and aggregate one scenario.

    ``warmup_fraction`` and ``replications`` default to the scenario's
    own values; ``invariants`` switches the protocol-invariant engine
    on for every run and surfaces the total violation count in the
    envelope.  The confidence level, replication count, warm-up
    fraction and worker count are all validated up front so a doomed
    sweep fails before burning CPU on it.

    ``replications=1, warmup_fraction=0.0`` reproduces the paper's
    single-run tables: every cell runs once at ``seed`` itself.
    """
    check_confidence(confidence)
    warmup = (
        warmup_fraction
        if warmup_fraction is not None
        else scenario.warmup_fraction
    )
    base = dict(extra_base) if extra_base else {}
    if invariants:
        base["invariants"] = True
    plan = ReplicationPlan(
        scenario,
        replications=replications,
        horizon_hours=horizon_hours,
        seed=seed,
        extra_base=base or None,
    )
    descriptors = plan.descriptors()
    # Fail fast on a window that cannot hold any samples, at the same
    # horizon replication_metrics will truncate each run at.
    for descriptor in descriptors:
        warmup_window(descriptor.config.horizon_seconds, warmup)
    executor = ParallelExecutor(jobs=jobs, progress=progress)
    outcomes = executor.run(scenario.name, descriptors)
    return collect_outcomes(
        plan,
        outcomes,
        confidence=confidence,
        warmup_fraction=warmup,
        invariants=invariants,
    )
