"""The simulation environment: clock, event queue and run loop.

Pending events live in one binary heap of ``(time, priority, sequence,
event)`` entries, whatever their delay.  The shared sequence counter
breaks ties, so events at the same instant fire in (priority,
insertion) order and every run is deterministic.

Cancellation is **lazy**: :meth:`Environment.cancel` marks a queued
event *defused* in O(1) and the pop loop skips the dead entry when it
surfaces, instead of an O(n) scan-and-remove at cancel time.
"""

from __future__ import annotations

import heapq
import typing as t
from itertools import count

from repro._units import Seconds
from repro.errors import SchedulingError, SimulationError, StopSimulation
from repro.sim.events import Event, NORMAL, Timeout
from repro.sim.process import Process, ProcessGenerator

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.profiler import WallClockProfiler

#: One pending heap entry: (time, priority, sequence, event).
QueueEntry = tuple[float, int, int, Event]


class Environment:
    """Owner of the simulated clock and the pending-event queue.

    Events scheduled for the same instant fire in (priority, insertion)
    order, which makes every simulation run fully deterministic for a
    given seedset.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Heap of (time, priority, sequence, event) entries.
        self._queue: list[QueueEntry] = []
        #: Live (non-defused) entries in the heap.
        self._live = 0
        self._seq = count()
        #: Events processed since construction — the benchmark numerator.
        self.events_processed = 0
        #: Optional wall-clock profiler; ``None`` (the default) costs a
        #: single attribute check per step.  When set, every callback
        #: execution is timed and charged to its process's subsystem
        #: bucket (see :mod:`repro.obs.profiler`).
        self.profiler: "WallClockProfiler | None" = None

    def __repr__(self) -> str:
        return f"<Environment now={self._now!r} pending={self._live}>"

    @property
    def now(self) -> Seconds:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def timeout(self, delay: Seconds) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay)

    def process(
        self, generator: ProcessGenerator, name: str | None = None
    ) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # Scheduling and the run loop
    # ------------------------------------------------------------------
    def schedule(
        self, event: Event, delay: Seconds = 0.0, priority: int = NORMAL
    ) -> None:
        """Queue ``event`` to be processed ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule into the past: {delay!r}")
        heapq.heappush(
            self._queue, (self._now + delay, priority, next(self._seq), event)
        )
        self._live += 1

    def cancel(self, event: Event) -> None:
        """Lazily cancel a triggered-but-unprocessed event.

        The event's queue entry stays where it is and is skipped when it
        surfaces at pop time — O(1) now, with the eventual skip absorbed
        into a pop the entry would have cost anyway — instead of an O(n)
        scan-and-remove.  The event becomes *defused*: terminal, never
        processed, its callbacks discarded.  Only cancel an event no
        process will ever wait on again (a process yielding a defused
        event raises, because it would otherwise wait forever).
        """
        if event._defused:
            return
        if not event.triggered or event.callbacks is None:
            raise SchedulingError(
                f"cannot cancel {event!r}: only triggered, unprocessed "
                "events hold a queue entry"
            )
        event._defused = True
        event.callbacks = None
        self._live -= 1

    def step(self) -> None:
        """Process exactly one live event (advancing the clock to it)."""
        queue = self._queue
        while True:
            if not queue:
                raise SimulationError("nothing left to simulate")
            time, __, __, event = heapq.heappop(queue)
            if not event._defused:
                break
        self._now = time
        self._live -= 1
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None  # marks the event processed
        if callbacks:
            profiler = self.profiler
            if profiler is None:
                for callback in callbacks:
                    callback(event)
            else:
                for callback in callbacks:
                    started = profiler.clock()
                    callback(event)
                    elapsed = profiler.clock() - started
                    owner = getattr(callback, "__self__", None)
                    profiler.record(
                        getattr(owner, "name", None) or "", elapsed
                    )

    def run(self, until: Seconds | None = None) -> None:
        """Run the simulation.

        With ``until=None`` run until the event queue drains; with a
        number, run until the clock reaches that time.  The internal
        stopper fires at priority −1, ahead of URGENT (0) events at the
        same instant: anything scheduled for *exactly* the horizon —
        URGENT events included — is never delivered.  The horizon is
        therefore a half-open interval ``[start, until)``.
        """
        if until is not None:
            if until < self._now:
                raise SchedulingError(
                    f"cannot run until {until!r}; clock is at {self._now!r}"
                )
            stopper = Event(self)
            stopper._value = float(until)
            stopper.callbacks.append(self._stop)  # type: ignore[union-attr]
            self.schedule(stopper, delay=until - self._now, priority=-1)
        try:
            while self._live:
                self.step()
        except StopSimulation:
            pass

    def close(self) -> None:
        """Drop every pending event, unprocessed, with its callbacks.

        A pending event's callbacks hold the processes waiting on it,
        and their generators hold whatever they use, often the event
        itself: dropping the callbacks breaks those cycles, so the
        processes are freed by reference counting.  The clock and the
        counters stay readable; nothing runs after this.
        """
        for __, __, __, event in self._queue:
            event.callbacks = None
        self._queue.clear()
        self._live = 0

    def _stop(self, event: Event) -> None:
        # Clamp the clock exactly at the stop time.
        self._now = event._value
        raise StopSimulation()
