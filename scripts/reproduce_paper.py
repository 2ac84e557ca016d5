#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one sweep.

Each paper experiment is a registered scenario; this script runs every
one of them once (one replication at the base seed, no warm-up — the
paper's single-run tables) and writes

* ``results/reproduction.json`` — one scenario result envelope per
  scenario, keyed by scenario name.  Like every envelope it holds no
  wall-clock time or worker count, so the file is byte-stable across
  reruns, ``--jobs`` values and machines;
* ``results/reproduction.txt`` — Table 1 plus one rendered table per
  scenario.

Per-run wall-clock times go to the stderr progress lines only.
Horizons are configurable; the defaults trade simulated time for
wall-clock so the whole sweep finishes in under an hour on one core.
``--full`` runs everything at the paper's 96 simulated hours (several
CPU-hours serially).

Runs are embarrassingly parallel: ``--jobs N`` fans each scenario's
runs over N worker processes (default: all cores) with results
bit-identical to a serial sweep.

Usage::

    python scripts/reproduce_paper.py            # reduced horizons
    python scripts/reproduce_paper.py --full     # paper-scale
    python scripts/reproduce_paper.py --only 1 4 # selected experiments
    python scripts/reproduce_paper.py --jobs 1   # force serial
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.errors import ReproError  # noqa: E402
from repro.experiments.parallel import (  # noqa: E402
    ParallelExecutor,
    resolve_jobs,
)
from repro.experiments.report import render_ci_rows  # noqa: E402
from repro.experiments.scenarios import (  # noqa: E402
    ReplicationPlan,
    collect_outcomes,
    get_scenario,
)
from repro.experiments.scenarios.spec import (  # noqa: E402
    FULL_HORIZON_HOURS,
)
from repro.experiments.tables import render_table1  # noqa: E402

#: Reduced horizon (hours) per paper scenario, in sweep order.
#: Experiment #4's change-rate sweep needs several hot-set eras (an era
#: is 8-19 h of client time at the paper's change rates), so it gets the
#: longest window.
REDUCED_HORIZONS = {
    "exp1-granularity": 16.0,
    "exp2-replacement-ro": 24.0,
    "exp3-replacement-rw": 16.0,
    "exp4-change-rates": 48.0,
    "exp4-cyclic": 24.0,
    "exp5-coherence": 16.0,
    "exp6-durations": 16.0,
    "exp6-client-counts": 16.0,
    "exp7-losses": 8.0,
    "exp7-bursts": 8.0,
}

#: Metrics rendered per scenario (default: hit, response, error).
RENDER_METRICS = {
    "exp2-replacement-ro": ("hit_ratio", "response_time"),
    "exp3-replacement-rw": ("hit_ratio", "response_time"),
    "exp4-change-rates": ("hit_ratio", "response_time"),
    "exp4-cyclic": ("hit_ratio", "response_time"),
    "exp6-durations": (
        "disconnected_error_rate", "error_rate", "hit_ratio",
    ),
    "exp6-client-counts": ("error_rate", "hit_ratio"),
    "exp7-losses": (
        "hit_ratio", "response_time", "drops", "retries", "timeouts",
        "degraded",
    ),
    "exp7-bursts": (
        "hit_ratio", "response_time", "drops", "retries", "timeouts",
        "degraded",
    ),
}


def select(tokens: list[str] | None) -> list[str]:
    """Scenario names for ``--only``: ``4``, ``exp4`` or a full name."""
    if not tokens:
        return list(REDUCED_HORIZONS)
    wanted = set(tokens) | {f"exp{token}" for token in tokens}
    return [
        name
        for name in REDUCED_HORIZONS
        if name in wanted or name.split("-")[0] in wanted
    ]


def run_one(name, horizon, seed, executor, trace_dir=None):
    """One replication of every cell at ``seed``, no warm-up."""
    plan = ReplicationPlan(
        get_scenario(name), replications=1, horizon_hours=horizon,
        seed=seed,
    )
    descriptors = plan.descriptors()
    if trace_dir is not None:
        # One JSONL trace per run, named by sweep position so a re-run
        # with the same arguments overwrites rather than accumulates.
        descriptors = [
            dataclasses.replace(d, config=d.config.replaced(
                trace_path=str(Path(trace_dir) / f"{name}-{d.index:03d}.jsonl")
            ))
            for d in descriptors
        ]
    outcomes = executor.run(name, descriptors)
    return collect_outcomes(plan, outcomes, warmup_fraction=0.0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="run at the paper's 96 h horizon")
    parser.add_argument("--horizon", type=float, default=None,
                        help="override every scenario's horizon "
                             "(simulated hours; for smoke runs and "
                             "speedup measurements)")
    parser.add_argument("--only", nargs="*", default=None,
                        help="experiments to run: 1-7, exp4 or a "
                             "scenario name such as exp4-cyclic")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes (default 0: all cores; "
                             "results are identical at any job count)")
    parser.add_argument("--out-dir", default=str(REPO_ROOT / "results"))
    parser.add_argument("--trace-dir", default=None,
                        help="export one JSONL event trace per run into "
                             "this directory (inspect with "
                             "'repro-mobicache trace summarize')")
    args = parser.parse_args()
    try:
        jobs = resolve_jobs(args.jobs)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    executor = ParallelExecutor(jobs=jobs, progress=True)

    names = select(args.only)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace_dir is not None:
        Path(args.trace_dir).mkdir(parents=True, exist_ok=True)
    envelopes = {}
    rendered = [render_table1(), ""]
    metadata = {
        "seed": args.seed,
        "full": bool(args.full),
        "horizon_override_hours": args.horizon,
        "scenarios": names,
    }
    failed = False

    started = time.perf_counter()
    for name in names:
        horizon = FULL_HORIZON_HOURS if args.full else REDUCED_HORIZONS[name]
        if args.horizon is not None:
            horizon = args.horizon
        print(f"=== {name} @ {horizon:g} h (jobs={jobs}) ===",
              file=sys.stderr, flush=True)
        scenario_started = time.perf_counter()
        result = run_one(name, horizon, args.seed, executor,
                         trace_dir=args.trace_dir)
        failed = failed or bool(result.failures)
        envelopes[name] = result.envelope()
        rendered.append(render_ci_rows(
            result,
            RENDER_METRICS.get(
                name, ("hit_ratio", "response_time", "error_rate")
            ),
        ))
        rendered.append("")
        print(f"=== {name} done in "
              f"{time.perf_counter() - scenario_started:.1f}s "
              f"({len(result.cells)} cells) ===",
              file=sys.stderr, flush=True)
        # Flush incrementally so partial sweeps are still useful.
        (out_dir / "reproduction.json").write_text(
            json.dumps({"metadata": metadata, "scenarios": envelopes},
                       indent=1) + "\n"
        )
        (out_dir / "reproduction.txt").write_text("\n".join(rendered))

    elapsed = time.perf_counter() - started
    print(f"done in {elapsed / 60:.1f} min with jobs={jobs}; "
          f"results in {out_dir}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
