"""Core event primitives of the discrete-event kernel.

The kernel follows the classic process-interaction style popularised by
CSIM and simpy: simulation activity lives in generator functions that
``yield`` :class:`Event` objects; the :class:`~repro.sim.environment.Environment`
resumes each process when the yielded event fires.

An event moves through three states::

    pending  --trigger-->  triggered  --step-->  processed

``triggered`` means the event has a value and sits in the event queue;
``processed`` means its callbacks have run.  A fourth, terminal state —
*defused* — marks a triggered event whose outcome became irrelevant
before it was processed (e.g. the losing timeout of a retry race); its
queue entry is skipped at pop time and its callbacks never run (see
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

    Processes wait on events by yielding them.  An event is *triggered*
    with either :meth:`succeed` (normal value) or :meth:`fail` (exception,
    which is re-raised inside every waiting process).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked with this event once it is processed; ``None``
        #: after processing (used as the "already processed" flag).
        self.callbacks: list[t.Callable[["Event"], None]] | None = []
        self._value: t.Any = _PENDING
        self._ok: bool = True
        self._defused: bool = False

    def __repr__(self) -> str:
        state = (
            "defused"
            if self._defused
            else "processed"
            if self.processed
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
    def processed(self) -> bool:
        """``True`` once callbacks have been run."""
        return self.callbacks is None and not self._defused

    @property
    def defused(self) -> bool:
        """``True`` once the event was lazily cancelled after triggering.

        A defused event never reaches the processed state: the kernel
        skips its queue entry at pop time and its callbacks never run.
        """
        return self._defused

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded, ``False`` if it failed."""
        if not self.triggered:
            raise SchedulingError("event value not yet available")
        return self._ok

    @property
    def value(self) -> t.Any:
        """The event's value (or the exception it failed with)."""
        if self._value is _PENDING:
            raise SchedulingError("event value not yet available")
        return self._value

    def succeed(self, value: t.Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SchedulingError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is raised inside every process waiting on the event.
        """
        if self.triggered:
            raise SchedulingError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self


class Initialize(Event):
    """Kernel bootstrap event that starts a process (URGENT priority).

    A distinct type so a process start, whose same-instant order is
    fixed by program order, can be told apart from an ordinary
    zero-delay event.
    """

    __slots__ = ()


class Resume(Event):
    """Kernel bookkeeping event resuming a process immediately.

    Used when a process yields an event that has already been processed
    (its value is copied here) and when the kernel must re-deliver an
    outcome at the current instant.
    """

    __slots__ = ()


class Interruption(Event):
    """Kernel event delivering an :class:`~repro.sim.process.Interrupt`.

    Scheduled URGENT so interrupts overtake ordinary events at the same
    instant.
    """

    __slots__ = ()


class Timeout(Event):
    """An event that fires automatically ``delay`` seconds in the future."""

    __slots__ = ("delay",)

    def __init__(
        self, env: "Environment", delay: float, value: t.Any = None
    ) -> None:
        if delay < 0:
            raise SchedulingError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r}>"


class Condition(Event):
    """Shared machinery for composite events (:class:`AnyOf`/:class:`AllOf`).

    Once the composite's outcome is decided, its ``_collect`` callback is
    detached from every still-pending child — the losers of the race.
    Without the detachment every retry/timeout race leaves one dead
    callback behind per loser for the rest of the run (the ``AnyOf``
    leak); with many clients retrying for hours those accumulate
    unboundedly.  A losing :class:`Timeout` with no other subscribers is
    additionally *defused* so the kernel skips its queue entry at pop
    time (see :meth:`~repro.sim.environment.Environment.cancel`) instead
    of walking an empty callback list at its expiry instant.
    """

    __slots__ = ("events",)

    def _collect(self, event: Event) -> None:
        raise NotImplementedError  # pragma: no cover - subclass hook

    def _detach_losers(self, winner: Event | None) -> None:
        collect = self._collect
        for child in self.events:
            callbacks = child.callbacks
            if child is winner or callbacks is None:
                continue
            try:
                callbacks.remove(collect)
            except ValueError:
                pass
            # Only Timeouts are defused: they are anonymous fire-and-forget
            # events, whereas a Store get or a Process may be referenced
            # (and e.g. cancelled or re-awaited) by other code.
            if not callbacks and type(child) is Timeout and child.triggered:
                child.env.cancel(child)


class AnyOf(Condition):
    """Composite event that fires when *any* of its children fires.

    Its value is a dict mapping each already-triggered child event to that
    child's value, in trigger order.  Failures propagate: if a child fails
    first, the composite fails with the child's exception.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", events: t.Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        if not self.events:
            raise SchedulingError("AnyOf needs at least one event")
        for event in self.events:
            if event.env is not env:
                raise SchedulingError("all events must share one environment")
        for event in self.events:
            if self.triggered:
                # An earlier child already decided the race; the remaining
                # children are losers and must not be subscribed at all.
                break
            if event.processed:
                self._collect(event)
            else:
                assert event.callbacks is not None
                event.callbacks.append(self._collect)

    def _collect(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(t.cast(BaseException, event.value))
        else:
            # Only children that have actually *fired* belong in the value
            # dict (Timeouts carry their value from creation, so `triggered`
            # alone would wrongly include still-pending ones).
            values = {
                child: child.value
                for child in self.events
                if (child.processed or child is event) and child.ok
            }
            self.succeed(values)
        self._detach_losers(event)


class AllOf(Condition):
    """Composite event that fires once *all* of its children have fired."""

    __slots__ = ("_remaining",)

    def __init__(self, env: "Environment", events: t.Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        self._remaining = 0
        for event in self.events:
            if event.env is not env:
                raise SchedulingError("all events must share one environment")
        for event in self.events:
            if not event.processed:
                self._remaining += 1
                assert event.callbacks is not None
                event.callbacks.append(self._collect)
            elif not event.ok:
                self.fail(t.cast(BaseException, event.value))
                self._detach_losers(event)
                return
        if self._remaining == 0 and not self.triggered:
            self.succeed({child: child.value for child in self.events})

    def _collect(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(t.cast(BaseException, event.value))
            self._detach_losers(event)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({child: child.value for child in self.events})
