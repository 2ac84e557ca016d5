"""Discrete-event simulation kernel (the CSIM substitute).

Public surface::

    from repro.sim import Environment, Resource, Store, RandomStream

    env = Environment()

    def greeter(env):
        yield env.timeout(3.0)
        return "hello at t=3"

    proc = env.process(greeter(env))
    env.run()
    assert proc.value == "hello at t=3"
"""

from repro.sim.environment import Environment
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    Initialize,
    Interruption,
    Resume,
    Timeout,
)
from repro.sim.process import Interrupt, Process
from repro.sim.rand import (
    RandomStream,
    cumulative,
    replication_seed,
    spawn_seed,
)
from repro.sim.resources import Request, Resource, Store, StoreGet

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Initialize",
    "Interrupt",
    "Interruption",
    "Process",
    "Resume",
    "RandomStream",
    "Request",
    "Resource",
    "Store",
    "StoreGet",
    "Timeout",
    "cumulative",
    "replication_seed",
    "spawn_seed",
]
