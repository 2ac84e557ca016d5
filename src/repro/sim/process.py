"""Generator-based simulation processes.

A *process* wraps a Python generator.  Each ``yield`` hands an
:class:`~repro.sim.events.Event` to the kernel; the generator is resumed
with the event's value once it fires (or the event's exception is thrown
into the generator if the event failed).

A process is itself an event: it triggers with the generator's return
value when the generator finishes, so processes can wait on each other::

    def parent(env):
        child_proc = env.process(child(env))
        result = yield child_proc
"""

from __future__ import annotations

import types
import typing as t

from repro.errors import SimulationError
from repro.sim.events import Event, Initialize, Resume, URGENT

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment

ProcessGenerator = t.Generator[Event, t.Any, t.Any]


class Process(Event):
    """A running simulation process.

    Triggered (as an event) when the underlying generator terminates; the
    event value is the generator's return value, or the uncaught exception
    if the generator failed.
    """

    __slots__ = ("_generator", "name")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: str | None = None,
    ) -> None:
        if (
            not hasattr(generator, "send")
            or not hasattr(generator, "throw")
            # An ``async def`` body has both, but the events it would
            # await are not awaitable: refuse it here, not at its first
            # ``await``.
            or isinstance(generator, types.CoroutineType)
        ):
            raise SimulationError(
                f"process body must be a generator, got {generator!r}"
            )
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off the generator at the current simulation time via an
        # initialisation event so process start order is deterministic.
        init = Initialize(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)  # type: ignore[union-attr]
        env.schedule(init, priority=URGENT)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} ({'alive' if self.is_alive else 'dead'})>"

    @property
    def is_alive(self) -> bool:
        """``True`` while the generator has not terminated."""
        return not self.triggered

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome.

        Only the event the process yielded resumes it, once, so the
        process is alive and waiting on exactly ``event``.
        """
        try:
            if event.ok:
                next_target = self._generator.send(event.value)
            else:
                exc = t.cast(BaseException, event.value)
                next_target = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return

        if not isinstance(next_target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {next_target!r}, "
                "which is not an Event"
            )
        if next_target.processed:
            # Already fired and drained: resume immediately at this instant.
            immediate = Resume(self.env)
            immediate._ok = next_target.ok
            immediate._value = next_target._value
            immediate.callbacks.append(self._resume)  # type: ignore[union-attr]
            self.env.schedule(immediate, priority=URGENT)
        else:
            callbacks = next_target.callbacks
            if callbacks is None:
                # Triggered but defused (lazily cancelled): it will never
                # be processed, so waiting on it would hang forever.
                raise SimulationError(
                    f"process {self.name!r} yielded defused event "
                    f"{next_target!r}, which will never fire"
                )
            callbacks.append(self._resume)
