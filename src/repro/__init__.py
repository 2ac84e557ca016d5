"""repro — reproduction of *Cache Management for Mobile Databases:
Design and Evaluation* (Chan, Si & Leong, ICDE 1998).

Quickstart::

    from repro import SimulationConfig, run_simulation

    result = run_simulation(SimulationConfig(
        granularity="HC", replacement="ewma-0.5", horizon_hours=12,
    ))
    print(result.hit_ratio, result.response_time, result.error_rate)

The package layers:

* :mod:`repro.sim` — discrete-event kernel (the CSIM substitute);
* :mod:`repro.oodb` — object database, buffers, server;
* :mod:`repro.net` — wireless channels, messages, disconnection;
* :mod:`repro.core` — the paper's contribution: granularities,
  coherence, replacement policies, the client storage cache;
* :mod:`repro.client`, :mod:`repro.workload`, :mod:`repro.metrics`;
* :mod:`repro.experiments` — the simulation runner and the paper's
  experiments as replicated scenarios.
"""

from repro.core import (
    CachingGranularity,
    ClientStorageCache,
    available_policies,
    create_policy,
)
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import (
    Simulation,
    SimulationResult,
    run_simulation,
)
from repro.metrics import MetricsSummary

__version__ = "1.0.0"

__all__ = [
    "CachingGranularity",
    "ClientStorageCache",
    "MetricsSummary",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "available_policies",
    "create_policy",
    "run_simulation",
    "__version__",
]
