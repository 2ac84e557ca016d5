"""Discrete-event simulation kernel (the CSIM substitute).

Public surface::

    from repro.sim import Environment, Resource, Store, RandomStream

    env = Environment()
    inbox = Store(env)

    def greeter(env):
        yield env.timeout(3.0)
        inbox.put("hello at t=3")

    def listener(env):
        message = yield inbox.get(timeout=5.0)  # None if nothing came
        assert message == "hello at t=3"

    env.process(greeter(env))
    env.process(listener(env))
    env.run()
"""

from repro.sim.environment import Environment
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.sim.rand import (
    RandomStream,
    cumulative,
    replication_seed,
    spawn_seed,
)
from repro.sim.resources import Request, Resource, Store, StoreGet

__all__ = [
    "Environment",
    "Event",
    "Process",
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
