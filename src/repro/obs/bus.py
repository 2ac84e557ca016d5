"""The typed event bus every simulation publishes through.

One :class:`EventBus` per simulation.  Emitters are domain objects
(client, cache, channels, server, kernel resources); subscribers are
optional sinks (the JSONL trace writer, the staleness timeline, the
invariant checkers).  Dispatch is by exact event type — a handler
subscribed to :class:`~repro.obs.events.CacheAccess` sees only those.

The **zero-overhead-when-off contract**: an emit site whose event only
exists for optional sinks guards itself with :meth:`EventBus.wants`;
when no subscriber asked for the type, the event object is never even
constructed.  Always-on events (the ones each emitter also counts in
its own metrics) skip the guard: they are emitted in every run, so the
per-type counts are the same whichever sinks are attached.

Dispatch order is subscription order, which the wiring code keeps
deterministic, so two runs of the same configuration emit and process
byte-identical event sequences (the property the parallel executor's
merge relies on).
"""

from __future__ import annotations

import typing as t

from repro.obs.events import SimEvent

#: A subscriber callable; receives the emitted event.
Handler = t.Callable[[t.Any], None]

E = t.TypeVar("E", bound=SimEvent)

_NO_HANDLERS: tuple[Handler, ...] = ()


class _TypeRecord:
    """Per-type dispatch cache: one counter plus the flattened handlers.

    Built on first emit of a type and patched in place whenever a
    subscription changes, so :meth:`EventBus.emit` — the always-on hot
    path, run once per published event — costs a single dict probe, one
    integer increment and the handler loop.  For an always-on type with
    no subscribers the handler tuple is empty, so the count bookkeeping
    short-circuits to just the increment (no name lookup, no dict
    writes, no second dispatch-table probe).
    """

    __slots__ = ("name", "count", "handlers")

    def __init__(self, name: str, handlers: tuple[Handler, ...]) -> None:
        self.name = name
        self.count = 0
        self.handlers = handlers


class EventBus:
    """Type-dispatched publish/subscribe hub with per-type counters."""

    __slots__ = ("_handlers", "_catch_all", "_records")

    def __init__(self) -> None:
        self._handlers: dict[type[SimEvent], tuple[Handler, ...]] = {}
        self._catch_all: tuple[Handler, ...] = ()
        #: Dispatch cache, keyed by exact event type; also the backing
        #: store for the per-type emit counters (see :attr:`counts`).
        self._records: dict[type[SimEvent], _TypeRecord] = {}

    def __repr__(self) -> str:
        return (
            f"<EventBus types={len(self._handlers)} "
            f"catch_all={len(self._catch_all)} "
            f"emitted={sum(r.count for r in self._records.values())}>"
        )

    # ------------------------------------------------------------------
    def subscribe(
        self, event_type: type[E], handler: t.Callable[[E], None]
    ) -> None:
        """Deliver every future event of exactly ``event_type`` to
        ``handler`` (subclasses do not match; dispatch is exact)."""
        existing = self._handlers.get(event_type, _NO_HANDLERS)
        self._handlers[event_type] = existing + (
            t.cast(Handler, handler),
        )
        record = self._records.get(event_type)
        if record is not None:
            record.handlers = self._handlers[event_type] + self._catch_all

    def subscribe_all(self, handler: Handler) -> None:
        """Deliver every emitted event of any type to ``handler``."""
        self._catch_all = self._catch_all + (handler,)
        for event_type, record in self._records.items():
            record.handlers = (
                self._handlers.get(event_type, _NO_HANDLERS)
                + self._catch_all
            )

    def wants(self, event_type: type[SimEvent]) -> bool:
        """Whether anyone would see ``event_type`` — the emit guard.

        Guarded emit sites call this before constructing the event::

            if bus.wants(CacheEvict):
                bus.emit(CacheEvict(...))
        """
        return bool(self._catch_all) or event_type in self._handlers

    def emit(self, event: SimEvent) -> None:
        """Publish ``event`` to its subscribers (and catch-all sinks)."""
        cls = type(event)
        record = self._records.get(cls)
        if record is None:
            record = self._records[cls] = _TypeRecord(
                cls.__name__,
                self._handlers.get(cls, _NO_HANDLERS) + self._catch_all,
            )
        record.count += 1
        for handler in record.handlers:
            handler(event)

    @property
    def counts(self) -> dict[str, int]:
        """Emitted-event tally per type name, in first-emit order.

        Deterministic for a given configuration and sink set (first-emit
        order is simulation order), surfaced in run results.  Built on
        demand from the dispatch cache so the per-emit cost is a single
        integer increment.
        """
        return {
            record.name: record.count for record in self._records.values()
        }
