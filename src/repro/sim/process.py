"""Generator-based simulation processes.

A *process* wraps a Python generator.  Each ``yield`` hands an
:class:`~repro.sim.events.Event` to the kernel; the generator is resumed
with the event's value once it fires.  Nothing waits on a process: when
the generator returns, the process simply ends, and an exception it
raises propagates out of :meth:`~repro.sim.environment.Environment.step`
to the caller of ``run``.
"""

from __future__ import annotations

import types
import typing as t

from repro.errors import SimulationError
from repro.sim.events import Event, URGENT

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment

ProcessGenerator = t.Generator[Event, t.Any, t.Any]


class Process:
    """A running simulation process."""

    __slots__ = ("_generator", "name")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: str | None = None,
    ) -> None:
        # A coroutine (an ``async def`` body) is refused here, not at
        # its first ``await``: the kernel's events are not awaitable.
        if not isinstance(generator, types.GeneratorType):
            raise SimulationError(
                f"process body must be a generator, got {generator!r}"
            )
        self._generator = generator
        self.name = name or generator.__name__
        # Kick off the generator at the current simulation time with an
        # URGENT zero-delay event, so processes start in program order.
        init = Event(env)
        init._value = None
        init.callbacks.append(self._resume)  # type: ignore[union-attr]
        env.schedule(init, priority=URGENT)

    def __repr__(self) -> str:
        return f"<Process {self.name!r}>"

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s value.

        Only the event the process yielded resumes it, once, so the
        process is alive and waiting on exactly ``event``.
        """
        try:
            target = self._generator.send(event._value)
        except StopIteration:
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, "
                "which is not an Event"
            )
        callbacks = target.callbacks
        if callbacks is None:
            # Already processed or defused: it will never fire again, so
            # waiting on it would hang forever.
            state = "defused" if target._defused else "processed"
            raise SimulationError(
                f"process {self.name!r} yielded {state} event "
                f"{target!r}, which will never fire again"
            )
        callbacks.append(self._resume)
