#!/usr/bin/env python3
"""CI determinism smoke check: trace digests under two hash seeds.

Runs each of two configurations twice with a JSONL trace — once in
this process, once in a subprocess with a *different*
``PYTHONHASHSEED`` — and fails unless both runs processed the same
number of kernel events and wrote byte-identical traces (equal SHA-256
digests).  The *default* configuration runs for ``--hours``; the
*lossy* one (100 clients for 0.2 h, 5% message loss, a 20 s request
timeout and two retries) drives the client's timeout, retry and
late-reply paths, which the fault-free default never takes.

The trace holds every bus event in emission order, so the digest is
order-sensitive: any hash-order leak that changes which work happens,
or only the order in which it happens, changes it.  Together with the
fixed seed this pins the repo's core determinism claim: a run is a
pure function of its seed, independent of Python's string-hash
randomisation.

Each first run's trace is then replayed through the protocol-invariant
checkers (``repro check-trace``), which exercises both trace codecs:
the check fails on any record that does not decode (malformed or of
an unknown type) and on any invariant violation.

Usage::

    PYTHONPATH=src python scripts/determinism_smoke.py [--hours H]
        [--hash-seed SEED]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile


#: The checked configurations by name; the default one's horizon is
#: ``--hours``, the lossy one's is fixed.
CONFIGS = ("default", "lossy")


def run_once(name: str, hours: float, trace_path: str) -> tuple[str, int]:
    """(trace SHA-256, events processed) for one traced run."""
    from repro.experiments.config import SimulationConfig
    from repro.experiments.runner import run_simulation

    if name == "default":
        config = SimulationConfig(horizon_hours=hours, trace_path=trace_path)
    else:
        config = SimulationConfig(
            num_clients=100,
            horizon_hours=0.2,
            loss_rate=0.05,
            request_timeout_seconds=20.0,
            retry_budget=2,
            trace_path=trace_path,
        )
    result = run_simulation(config)
    digest = hashlib.sha256()
    with open(trace_path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest(), result.events_processed


def check(name: str, hours: float, hash_seed: str) -> bool:
    """Run config ``name`` under both hash seeds and replay its trace."""
    from repro.analysis.invariants import check_trace

    with tempfile.TemporaryDirectory() as scratch:
        first_trace = os.path.join(scratch, "a.jsonl")
        digest, events = run_once(name, hours, first_trace)
        print(f"{name} run 1: events={events} sha256={digest}")
        replay = check_trace(first_trace)
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        second = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--hours",
                str(hours),
                "--single",
                name,
                os.path.join(scratch, "b.jsonl"),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
    if second.returncode != 0:
        print(second.stderr, file=sys.stderr)
        print(f"FAIL: {name} second run crashed", file=sys.stderr)
        return False
    digest2, events2 = second.stdout.split()
    print(
        f"{name} run 2: events={events2} sha256={digest2} "
        f"(PYTHONHASHSEED={hash_seed})"
    )
    if int(events2) != events or digest2 != digest:
        print(
            f"FAIL: the {name} runs differ across PYTHONHASHSEED values "
            "— hash order is leaking into the simulation",
            file=sys.stderr,
        )
        return False
    print(
        f"{name} replay: {replay.summary()}, "
        f"{replay.malformed_lines} malformed, "
        f"{replay.unknown_records} unknown"
    )
    if not replay.ok or replay.malformed_lines or replay.unknown_records:
        print(
            f"FAIL: the {name} trace does not replay cleanly through the "
            "invariant checkers",
            file=sys.stderr,
        )
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--hours",
        type=float,
        default=1.0,
        help="simulated horizon per run (default: 1.0)",
    )
    parser.add_argument(
        "--hash-seed",
        default="424242",
        help="PYTHONHASHSEED for the second run (default: 424242)",
    )
    parser.add_argument(
        "--single",
        nargs=2,
        default=None,
        metavar=("CONFIG", "TRACE"),
        help="run CONFIG once, tracing to TRACE, and print "
        "'digest events' (internal: the second run)",
    )
    args = parser.parse_args(argv)

    if args.single:
        name, trace = args.single
        digest, events = run_once(name, args.hours, trace)
        print(digest, events)
        return 0

    for name in CONFIGS:
        if not check(name, args.hours, args.hash_seed):
            return 1
    print("OK: identical traces and event counts; the traces replay clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
