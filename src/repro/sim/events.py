"""Core event primitives of the discrete-event kernel.

The kernel follows the classic process-interaction style popularised by
CSIM and simpy: simulation activity lives in generator functions that
``yield`` :class:`Event` objects; the :class:`~repro.sim.environment.Environment`
resumes each process when the yielded event fires.

An event moves through three states::

    pending  --succeed-->  triggered  --step-->  processed

``triggered`` means the event has a value and sits in the event queue;
``processed`` means its callbacks have run.  A fourth, terminal state —
*defused* — marks a triggered event whose outcome became irrelevant
before it was processed (e.g. the timeout of a store get that an item
reached first); its queue entry is skipped at pop time and its
callbacks never run (see
:meth:`~repro.sim.environment.Environment.cancel`).
"""

from __future__ import annotations

import typing as t

from repro.errors import SchedulingError

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.environment import Environment

#: Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()

#: Default scheduling priority; lower values fire earlier at equal times.
NORMAL = 1
#: Priority used by urgent bookkeeping events (fires before NORMAL ones).
URGENT = 0


class Event:
    """A happening at a point in simulated time, carrying a value.

    Processes wait on events by yielding them; :meth:`succeed` triggers
    the event and the waiting process resumes with its value.
    """

    __slots__ = ("env", "callbacks", "_value", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked with this event once it is processed; ``None``
        #: once processed or defused (the "will not fire again" flag).
        self.callbacks: list[t.Callable[["Event"], None]] | None = []
        self._value: t.Any = _PENDING
        self._defused: bool = False

    def __repr__(self) -> str:
        state = (
            "defused"
            if self._defused
            else "processed"
            if self.callbacks is None
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    @property
    def triggered(self) -> bool:
        """``True`` once the event has a value (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def value(self) -> t.Any:
        """The event's value."""
        if self._value is _PENDING:
            raise SchedulingError("event value not yet available")
        return self._value

    def succeed(self, value: t.Any = None) -> "Event":
        """Trigger the event with ``value``."""
        if self.triggered:
            raise SchedulingError(f"{self!r} has already been triggered")
        self._value = value
        self.env.schedule(self)
        return self


class Timeout(Event):
    """An event that fires automatically ``delay`` seconds in the future."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float) -> None:
        if delay < 0:
            raise SchedulingError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._value = None
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r}>"
