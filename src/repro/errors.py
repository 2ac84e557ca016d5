"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError`` and friends) propagate untouched.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event kernel was driven into an illegal state."""


class SchedulingError(SimulationError):
    """An event was scheduled or triggered in an inconsistent way."""


class StopSimulation(Exception):
    """Internal control-flow signal that ends :meth:`Environment.run`.

    Deliberately *not* a :class:`ReproError`: user code should never catch it.
    """


class SchemaError(ReproError):
    """An OODB schema definition is invalid or violated."""


class QueryError(ReproError):
    """A query referenced classes, attributes or objects that do not exist."""


class CacheError(ReproError):
    """The client cache was used inconsistently."""


class ReplacementError(CacheError):
    """A replacement policy was driven into an illegal state."""


class NetworkError(ReproError):
    """The wireless network model was used inconsistently."""


class ConfigurationError(ReproError):
    """A :class:`SimulationConfig` contains invalid parameter values."""


class ScenarioError(ConfigurationError):
    """A scenario specification is invalid or references unknown names."""


class TraceError(ReproError):
    """A trace file cannot be opened for writing."""


class StatisticsError(ReproError):
    """A statistic was requested from degenerate data (no samples after
    warm-up, a single batch, zero completed replications, ...) where the
    honest answer is an error rather than a NaN."""
