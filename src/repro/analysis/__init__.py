"""Static and runtime checks that a run is a pure function of its seed.

* :mod:`repro.analysis.engine` + :mod:`repro.analysis.rules` — a small
  AST lint framework with simulation-domain rules (REP001+) that turn
  wall-clock reads, unseeded randomness, hash-order iteration and bare
  unit literals into CI failures.  Run it with
  ``repro-mobicache lint src tests``.
* :mod:`repro.analysis.invariants` — streaming protocol-invariant
  checkers over a run's obs events (``repro run --invariants``,
  ``repro check-trace``).

Hash-seed independence is checked end to end, not here:
``scripts/determinism_smoke.py`` compares the SHA-256 of a run's JSONL
trace under two ``PYTHONHASHSEED`` values.

Neither half imports the other, so a run that checks invariants does
not load the lint engine.
"""
