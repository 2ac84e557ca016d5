"""The simulation-domain rule set (REP001+).

Importing this package registers every rule with the engine; add new
rule modules to the import list below.  Rule ids are permanent — retire
a rule by deleting its module, never by reusing its id.
"""

from repro.analysis.rules import (  # noqa: F401
    events,
    floats,
    ordering,
    randomness,
    suppressions,
    taxonomy,
    units,
    wallclock,
)

__all__ = [
    "events",
    "floats",
    "ordering",
    "randomness",
    "suppressions",
    "taxonomy",
    "units",
    "wallclock",
]
