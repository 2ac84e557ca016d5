#!/usr/bin/env python3
"""CI invariant smoke check: protocol laws over the smoke matrix.

Runs short simulations over the AC/OC/HC granularities — each with
faults off (experiment-1 conditions) and with loss + retry recovery on
(experiment-7 conditions) — plus one HC run in which five clients are
cut off for half the horizon (experiment-6 conditions), with the
in-process invariant checkers attached *and* a JSONL trace exported,
then replays every trace through ``check_trace``.  Both passes must report zero violations, and the
replay must decode every trace line (none malformed or unknown): the
in-process pass additionally reconciles event-derived totals against
the live metrics/channel/cache objects, and the replay pass proves the
persisted trace alone carries enough evidence to verify the protocol.

Each run also goes with the cyclic garbage collector off, and a
collection after it must find no unreachable object: ``Simulation.run``
pauses the collector on the grounds that a running simulation drops no
reference cycles, and this checks that at longer horizons than the
tier-1 test, with the trace sink attached.

After each run the retained state must follow the resident cache:
every lazily pruned store a client policy declares (``lazy_stores()``)
holds at most two records per live one plus ``COMPACTION_SLACK``, and
the server's write log, which only the invalidation-report broadcaster
reads, is empty under the refresh-time coherence these runs use.  The
runs use the default EWMA policy, which declares four stores per
client; a run whose policies declare none fails, so the bound cannot
pass by finding nothing to check.

On failure the offending trace files stay in ``--outdir`` (default
``invariant-traces/``) so CI can upload them as artifacts; on success
the directory is removed.

Usage::

    PYTHONPATH=src python scripts/invariant_smoke.py [--hours H]
"""

from __future__ import annotations

import argparse
import gc
import shutil
import sys
from pathlib import Path

GRANULARITIES = ("AC", "OC", "HC")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--hours",
        type=float,
        default=2.0,
        help="simulated horizon per run (default: 2.0)",
    )
    parser.add_argument(
        "--outdir",
        default="invariant-traces",
        help="directory for trace files (kept only on failure)",
    )
    args = parser.parse_args(argv)

    from repro.analysis.invariants import check_trace
    from repro.core.replacement.base import COMPACTION_SLACK
    from repro.experiments.config import SimulationConfig
    from repro.experiments.runner import Simulation

    def store_bounds(sim: Simulation) -> tuple[int, int]:
        """(declared client policy stores, those beyond their bound)."""
        stores = [
            sizes
            for client in sim.clients
            for sizes in client.cache.policy.lazy_stores().values()
        ]
        unbounded = sum(
            1
            for records, live in stores
            if records > 2 * live + COMPACTION_SLACK
        )
        return len(stores), unbounded

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    failures = 0
    matrix = [
        (
            f"{granularity}-{'faults' if faults else 'clean'}",
            {
                "granularity": granularity,
                "loss_rate": 0.05 if faults else 0.0,
                "request_timeout_seconds": 20.0 if faults else 0.0,
                "retry_budget": 3 if faults else 0,
            },
        )
        for granularity in GRANULARITIES
        for faults in (False, True)
    ]
    # Disconnected clients serve expired entries and leave uncached
    # reads unanswered (experiment-6 conditions), so the stale-serve
    # and unanswered counters are reconciled too.
    matrix.append(
        (
            "HC-disconnect",
            {
                "granularity": "HC",
                "disconnected_clients": 5,
                "disconnection_hours": args.hours / 2,
            },
        )
    )
    for label, overrides in matrix:
        trace_path = outdir / f"{label}.jsonl"
        config = SimulationConfig(
            horizon_hours=args.hours,
            invariants=True,
            trace_path=str(trace_path),
            **overrides,
        )
        sim = Simulation(config)
        gc.collect()
        gc.disable()
        try:
            result = sim.run()
            # The simulation is still referenced: whatever this
            # finds, the run dropped in a reference cycle.
            unreachable = gc.collect()
        finally:
            gc.enable()
        live = result.invariants
        assert live is not None
        replay = check_trace(str(trace_path))
        stores, unbounded = store_bounds(sim)
        logged = len(sim.server.write_log)
        # The disconnection run must reach the counters it is there for.
        reached = not overrides.get("disconnected_clients") or all(
            sum(getattr(client.metrics, counter) for client in sim.clients)
            for counter in ("stale_served_accesses", "unanswered_accesses")
        )
        ok = (
            live.ok
            and replay.ok
            and not replay.malformed_lines
            and not replay.unknown_records
            and unreachable == 0
            and stores > 0
            and unbounded == 0
            and logged == 0
            and reached
        )
        status = "ok" if ok else "FAIL"
        print(
            f"[{status}] {label:<13} live: {live.summary()} | "
            f"replay: {replay.summary()}, "
            f"{replay.unknown_records} unknown record(s) | "
            f"unreachable after run: {unreachable} | "
            f"unbounded stores: {unbounded} of {stores} | "
            f"logged writes: {logged}"
        )
        if not ok:
            failures += 1
            if not reached:
                print("    no stale serve or no unanswered read")
            for violation in (live.violations + replay.violations)[:20]:
                print(f"    {violation.formatted()}")
            print(f"    trace kept at {trace_path}")
        else:
            trace_path.unlink()

    if failures:
        print(
            f"{failures} configuration(s) violated protocol invariants, "
            f"left trace lines undecoded, dropped reference cycles or "
            f"kept state beyond the live cache; traces left in {outdir}/",
            file=sys.stderr,
        )
        return 1
    shutil.rmtree(outdir, ignore_errors=True)
    print(
        "all smoke configurations satisfy every invariant, drop no "
        "reference cycles and keep no state beyond the live cache"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
