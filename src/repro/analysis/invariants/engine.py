"""The streaming invariant engine.

A :class:`InvariantChecker` is a finite-state machine over the obs
event stream: it subscribes to the event types it cares about, keys its
state per object/client/channel internally, and reports
:class:`Violation` objects through the engine.  The engine drives a set
of checkers from either source of truth:

* **in-process** — :meth:`InvariantEngine.attach` subscribes to the
  run's :class:`~repro.obs.bus.EventBus`, so ``repro run --invariants``
  verifies the protocol while the simulation executes (no trace file
  needed);
* **post-hoc** — :func:`check_trace` decodes a JSONL trace written by
  :class:`~repro.obs.sinks.TraceSink` and replays it through the same
  checkers, so ``repro check-trace`` can audit any persisted run.

Checkers never feed back into the simulation: like every other sink,
removing them cannot change a single domain decision, which is what
keeps ``--invariants`` a strict no-op on the pinned headline metrics.

After a run (not a trace), :meth:`InvariantEngine.reconcile` compares
the checkers' event-derived totals against the live metrics/network/
cache objects — the cross-layer half of the conservation laws.
"""

from __future__ import annotations

import dataclasses
import functools
import typing as t

from repro.obs.bus import EventBus
from repro.obs.events import ALL_EVENT_TYPES, SimEvent

#: Default cap on recorded violations (the count keeps rising past it).
DEFAULT_MAX_VIOLATIONS = 100

#: Event class per type name, for trace decoding.
EVENT_TYPES_BY_NAME: dict[str, type[SimEvent]] = {
    cls.__name__: cls for cls in ALL_EVENT_TYPES
}


@dataclasses.dataclass(frozen=True)
class Violation:
    """One invariant violation at a point in the event stream.

    ``checker_id`` is the stable identifier of the violated invariant
    (``COHxxx`` coherence, ``CAUxxx`` causality, ``CONxxx``
    conservation — the catalog lives in DESIGN.md §12); ``scope`` names
    the state-machine key it fired for (a client, a cache key, a
    channel).
    """

    checker_id: str
    time: float
    scope: str
    message: str

    def formatted(self) -> str:
        return (
            f"{self.checker_id} t={self.time:g} [{self.scope}] "
            f"{self.message}"
        )


@dataclasses.dataclass
class RunContext:
    """Live run objects the reconciliation pass checks totals against.

    Fields are duck-typed so the invariant layer stays decoupled from
    the domain modules (and unnecessary for pure trace checking):

    * ``metrics`` — ``client_id -> ClientMetrics``, the counters each
      client keeps where it emits its events;
    * ``channel_stats`` — ``channel name -> ChannelStats``, the record
      each channel updates where a transmission ends
      (``WirelessChannel.stats``);
    * ``caches`` — ``(client_id, cache name) -> ClientStorageCache``;
    * ``raw_bytes`` / ``goodput_bytes`` — the network's run totals.
    """

    metrics: dict[int, t.Any] = dataclasses.field(default_factory=dict)
    channel_stats: dict[str, t.Any] = dataclasses.field(
        default_factory=dict
    )
    caches: dict[tuple[int, str], t.Any] = dataclasses.field(
        default_factory=dict
    )
    raw_bytes: float = 0.0
    goodput_bytes: float = 0.0


class InvariantChecker:
    """Base class: subclass, declare ``event_types``, handle events.

    ``checker_id`` is the checker's *family* id; individual violations
    may carry more specific ids (one family can enforce several laws).
    """

    #: Family identifier (e.g. ``COH``): shown in reports.
    checker_id: str = ""
    #: One-line summary of what the checker proves.
    title: str = ""
    #: The exact event types this checker wants to see.
    event_types: tuple[type[SimEvent], ...] = ()

    def __init__(self) -> None:
        self._report: t.Callable[[Violation], None] = lambda v: None

    def bind(self, report: t.Callable[[Violation], None]) -> None:
        """Give the checker the engine's violation collector."""
        self._report = report

    def violation(
        self, checker_id: str, time: float, scope: str, message: str
    ) -> None:
        self._report(Violation(checker_id, time, scope, message))

    def on_event(self, event: SimEvent) -> None:
        raise NotImplementedError

    def finalize(self) -> None:
        """Stream exhausted: check end-of-run laws (default: none)."""

    def reconcile(self, context: RunContext) -> None:
        """Compare event-derived totals against live run objects
        (in-process runs only; default: nothing to compare)."""


@dataclasses.dataclass
class InvariantReport:
    """What one invariant pass concluded."""

    violations: list[Violation]
    events_checked: int
    checkers: tuple[str, ...]
    #: Violations beyond the recording cap (counted, not kept).
    dropped_violations: int = 0
    #: Trace lines that failed to decode as JSON, or as the known
    #: event type they name (trace mode only).
    malformed_lines: int = 0
    #: Decoded records whose ``type`` names no known event class.
    unknown_records: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.dropped_violations

    @property
    def total_violations(self) -> int:
        return len(self.violations) + self.dropped_violations

    def counts_by_id(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.checker_id] = (
                counts.get(violation.checker_id, 0) + 1
            )
        return counts

    def summary(self) -> str:
        tail = ""
        if self.malformed_lines:
            tail += f", {self.malformed_lines} malformed line(s) skipped"
        if self.unknown_records:
            tail += f", {self.unknown_records} unknown record(s) skipped"
        if self.ok:
            return (
                f"ok: {self.events_checked} events, "
                f"{len(self.checkers)} checkers, 0 violations{tail}"
            )
        breakdown = ", ".join(
            f"{checker_id} x{count}"
            for checker_id, count in sorted(self.counts_by_id().items())
        )
        return (
            f"FAIL: {self.total_violations} violation(s) over "
            f"{self.events_checked} events ({breakdown}){tail}"
        )


class _ViolationLog:
    """The violations reported to one engine: the first
    ``max_violations`` kept, the rest counted.

    Checkers report through this log's :meth:`record`, not through a
    method of the engine, so an engine and its checkers hold no
    reference cycle and a dropped run frees them without the collector.
    """

    __slots__ = ("max_violations", "violations", "dropped")

    def __init__(self, max_violations: int) -> None:
        self.max_violations = max_violations
        self.violations: list[Violation] = []
        self.dropped = 0

    def record(self, violation: Violation) -> None:
        if len(self.violations) < self.max_violations:
            self.violations.append(violation)
        else:
            self.dropped += 1


class InvariantEngine:
    """Drives registered checkers over an event stream."""

    def __init__(
        self,
        checkers: t.Sequence[InvariantChecker] | None = None,
        max_violations: int = DEFAULT_MAX_VIOLATIONS,
    ) -> None:
        if checkers is None:
            from repro.analysis.invariants import default_checkers

            checkers = default_checkers()
        self.checkers: list[InvariantChecker] = list(checkers)
        self._log = _ViolationLog(int(max_violations))
        self.events_checked = 0
        self.malformed_lines = 0
        self.unknown_records = 0
        self._finalized = False
        self._dispatch: dict[
            type[SimEvent], tuple[t.Callable[[t.Any], None], ...]
        ] = {}
        for checker in self.checkers:
            checker.bind(self._log.record)
            for event_type in checker.event_types:
                existing = self._dispatch.get(event_type, ())
                self._dispatch[event_type] = existing + (checker.on_event,)

    def __repr__(self) -> str:
        return (
            f"<InvariantEngine checkers={len(self.checkers)} "
            f"events={self.events_checked} "
            f"violations={len(self._log.violations)}>"
        )

    # ------------------------------------------------------------------
    def attach(self, bus: EventBus) -> "InvariantEngine":
        """Subscribe to every event type any checker wants."""
        for event_type in self._dispatch:
            bus.subscribe(event_type, self.feed)
        return self

    def feed(self, event: SimEvent) -> None:
        """Run one event through every checker that wants its type."""
        self.events_checked += 1
        for handler in self._dispatch.get(type(event), ()):
            handler(event)

    def finalize(self) -> None:
        """Signal end of stream to every checker (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        for checker in self.checkers:
            checker.finalize()

    def reconcile(self, context: RunContext) -> None:
        """Check event-derived totals against the live run objects."""
        self.finalize()
        for checker in self.checkers:
            checker.reconcile(context)

    def report(self) -> InvariantReport:
        """Finalize (if needed) and assemble the report."""
        self.finalize()
        return InvariantReport(
            violations=list(self._log.violations),
            events_checked=self.events_checked,
            checkers=tuple(
                checker.checker_id for checker in self.checkers
            ),
            dropped_violations=self._log.dropped,
            malformed_lines=self.malformed_lines,
            unknown_records=self.unknown_records,
        )


# ----------------------------------------------------------------------
# Trace replay
# ----------------------------------------------------------------------
#: Declared scalar type -> the JSON value types that decode to it.
_TRACE_SCALARS: dict[t.Any, tuple[type, ...]] = {
    float: (float, int),
    int: (int,),
    bool: (bool,),
    str: (str,),
    type(None): (type(None),),
}


@functools.cache
def _field_types(
    cls: type[SimEvent],
) -> tuple[tuple[str, frozenset[type] | None], ...]:
    """Each field of ``cls`` in order, with the value types a trace
    record may carry for it (``None``: any hashable value, e.g. a cache
    key).

    The declared types are resolved once per class.  Values are matched
    by exact type, so ``True`` is no ``int``; an ``int`` passes for a
    ``float``.
    """
    fields: list[tuple[str, frozenset[type] | None]] = []
    for name, hint in t.get_type_hints(cls).items():
        if hint is t.Any:
            fields.append((name, None))
            continue
        accepted: set[type] = set()
        for member in t.get_args(hint) or (hint,):
            if member not in _TRACE_SCALARS:
                raise TypeError(
                    f"{cls.__name__}.{name}: no trace form for {member!r}"
                )
            accepted.update(_TRACE_SCALARS[member])
        fields.append((name, frozenset(accepted)))
    return tuple(fields)


def decode_record(record: dict[str, t.Any]) -> SimEvent | None:
    """Rehydrate one trace record into its event.

    Cache keys stay in their stringified trace form — checkers treat
    them as opaque hashable identifiers, so the string is as good as
    the tuple.  Returns ``None`` for records naming no known event
    type (forward compatibility with traces from newer taxonomies) and
    for records that do not fit the type they name: a required field
    missing, a value of another type than the field declares, or an
    unhashable cache key.
    """
    cls = EVENT_TYPES_BY_NAME.get(str(record.get("type", "")))
    if cls is None:
        return None
    kwargs: dict[str, t.Any] = {}
    for name, accepted in _field_types(cls):
        if name not in record:
            continue
        value = record[name]
        if isinstance(value, list):
            value = tuple(value)
        if accepted is None:
            # Checkers key their state by these values (cache keys).
            try:
                hash(value)
            except TypeError:
                return None
        elif type(value) not in accepted:
            return None
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError:
        # A required field is missing (truncated or foreign record).
        return None


def check_trace(
    path: str,
    checkers: t.Sequence[InvariantChecker] | None = None,
    max_violations: int = DEFAULT_MAX_VIOLATIONS,
) -> InvariantReport:
    """Replay a JSONL trace through the invariant checkers.

    Malformed lines (a partial final write of a crashed run, or a
    record that does not fit the event type it names) are skipped and
    counted in the report rather than aborting the check.
    """
    from repro.obs.sinks import read_trace

    engine = InvariantEngine(checkers, max_violations=max_violations)

    def on_malformed(line_number: int, line: str, error: Exception) -> None:
        engine.malformed_lines += 1

    for record in read_trace(path, on_malformed=on_malformed):
        event = decode_record(record)
        if event is not None:
            engine.feed(event)
        elif str(record.get("type", "")) in EVENT_TYPES_BY_NAME:
            # A known type whose fields do not fit: mistyped or cut.
            engine.malformed_lines += 1
        else:
            engine.unknown_records += 1
    engine.finalize()
    return engine.report()
