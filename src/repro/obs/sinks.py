"""Event sinks: JSONL trace export and the staleness timeline.

Sinks subscribe to the :class:`~repro.obs.bus.EventBus` and never feed
back into the simulation — removing every sink cannot change a single
domain decision, which is what keeps instrumentation a strict no-op on
the pinned regression outputs.
"""

from __future__ import annotations

import dataclasses
import json
import typing as t

from repro.errors import TraceError
from repro.obs.bus import EventBus
from repro.obs.events import CacheAccess, SimEvent

#: Default number of encoded events buffered before a disk flush.
DEFAULT_TRACE_BUFFER = 1000
#: Default staleness-timeline bucket width (matches the hit-ratio
#: series in :mod:`repro.metrics.collectors`).
DEFAULT_STALENESS_BUCKET = 1800.0


def jsonify(value: t.Any) -> t.Any:
    """Best-effort JSON representation of an event field value.

    Scalars pass through; plain tuples/lists recurse; anything else
    falls back to ``repr``-style stringification so traces stay
    loss-tolerant rather than raising mid-run.  The container test is
    exact: an OID is a named tuple and must encode whole (``"Root#3"``),
    not as its fields, without this leaf package importing its class.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if type(value) in (tuple, list):
        return [jsonify(item) for item in value]
    return str(value)


def encode_event(event: SimEvent) -> dict[str, t.Any]:
    """One event as a flat JSON-ready dict: ``type``, then its fields
    in declaration order (the named tuple's ``_fields``)."""
    record: dict[str, t.Any] = {"type": type(event).__name__}
    for name, value in event._asdict().items():
        record[name] = jsonify(value)
    return record


class TraceSink:
    """Bounded-memory JSONL trace writer.

    Subscribes to *every* event on the bus, encodes each to one JSON
    line, and flushes to ``path`` whenever ``buffer_events`` lines have
    accumulated — memory use is bounded by the buffer, not the run
    length.  Call :meth:`close` (the runner does) to flush the tail and
    release the file handle, or use the sink as a context manager —
    ``__exit__`` closes even when the run aborts mid-stream, so a
    crashed simulation still leaves a readable (at worst
    partial-final-line) trace on disk.
    """

    def __init__(
        self, path: str, buffer_events: int = DEFAULT_TRACE_BUFFER
    ) -> None:
        if buffer_events < 1:
            raise ValueError(
                f"trace buffer must be >= 1 events, got {buffer_events!r}"
            )
        self.path = path
        self.buffer_events = int(buffer_events)
        self.events_written = 0
        self._buffer: list[str] = []
        try:
            self._file: t.TextIO | None = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise TraceError(
                f"cannot write trace {path}: {exc.strerror or exc}"
            ) from exc

    def __repr__(self) -> str:
        return f"<TraceSink {self.path!r} written={self.events_written}>"

    def attach(self, bus: EventBus) -> "TraceSink":
        bus.subscribe_all(self.on_event)
        return self

    def on_event(self, event: SimEvent) -> None:
        if self._file is None:
            return
        self._buffer.append(json.dumps(encode_event(event)))
        self.events_written += 1
        if len(self._buffer) >= self.buffer_events:
            self.flush()

    def flush(self) -> None:
        if self._file is None or not self._buffer:
            return
        self._file.write("\n".join(self._buffer) + "\n")
        self._file.flush()
        self._buffer.clear()

    def close(self) -> None:
        """Flush buffered lines and close the file (idempotent)."""
        if self._file is None:
            return
        self.flush()
        self._file.close()
        self._file = None

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: Callback for :func:`read_trace`: ``(line_number, line, error)``.
MalformedLineHandler = t.Callable[[int, str, Exception], None]


def read_trace(
    path: str,
    on_malformed: MalformedLineHandler | None = None,
) -> t.Iterator[dict[str, t.Any]]:
    """Yield the decoded records of a JSONL trace file.

    With ``on_malformed`` set, lines that fail to decode as UTF-8 or
    to parse as a JSON object (the partial final write of a crashed
    run) are reported to the callback and skipped instead of raising —
    the stream keeps going, so a truncated or corrupted trace is still
    checkable around the bad lines.
    """
    with open(path, "rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError(
                        f"trace line is {type(record).__name__}, "
                        "expected a JSON object"
                    )
            except ValueError as error:
                if on_malformed is None:
                    raise
                text = raw.decode("utf-8", "backslashreplace").strip()
                on_malformed(line_number, text, error)
                continue
            yield t.cast("dict[str, t.Any]", record)


def summarize_trace(
    path: str,
    event_types: t.Collection[str] | None = None,
) -> dict[str, t.Any]:
    """Aggregate a JSONL trace: per-type counts and the time range.

    The inverse half of the export round-trip: the per-type counts must
    match the run's ``event_counts`` (minus nothing — the trace sink
    subscribes to everything).  ``event_types`` restricts the summary
    to the named types (counts, total and time range all filtered).
    Malformed lines are skipped and counted.
    """
    wanted = None if event_types is None else frozenset(event_types)
    counts: dict[str, int] = {}
    first: float | None = None
    last: float | None = None
    total = 0
    malformed = 0

    def on_malformed(line_number: int, line: str, error: Exception) -> None:
        nonlocal malformed
        malformed += 1

    for record in read_trace(path, on_malformed=on_malformed):
        name = str(record.get("type", "?"))
        if wanted is not None and name not in wanted:
            continue
        counts[name] = counts.get(name, 0) + 1
        total += 1
        moment = record.get("time")
        if isinstance(moment, (int, float)):
            if first is None or moment < first:
                first = float(moment)
            if last is None or moment > last:
                last = float(moment)
    summary = {
        "path": path,
        "events": total,
        "counts": dict(sorted(counts.items())),
        "first_time": first,
        "last_time": last,
        "malformed_lines": malformed,
    }
    return summary


#: Record fields tried, in order, as the grouping identity of a trace
#: record for :func:`trace_top` (first present wins).
_TOP_GROUP_FIELDS = ("key", "channel", "resource", "client_id")


def trace_top(
    path: str,
    event_type: str,
    limit: int = 10,
) -> list[tuple[str, int]]:
    """The hottest objects of one event type in a trace.

    Groups records of ``event_type`` by their natural identity — the
    cache ``key`` for cache events, the ``channel`` for network events,
    the ``resource`` for facility events, the ``client_id`` otherwise —
    and returns the ``limit`` most frequent as ``(identity, count)``,
    ties broken lexically so output is deterministic.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit!r}")
    counts: dict[str, int] = {}

    def on_malformed(line_number: int, line: str, error: Exception) -> None:
        return None

    for record in read_trace(path, on_malformed=on_malformed):
        if record.get("type") != event_type:
            continue
        for field in _TOP_GROUP_FIELDS:
            if field in record:
                identity = str(record[field])
                if field == "client_id":
                    identity = f"client-{identity}"
                break
        else:
            identity = "(all)"
        counts[identity] = counts.get(identity, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:limit]


@dataclasses.dataclass(frozen=True)
class StalenessBucket:
    """Aggregate age-at-read statistics for one time bucket."""

    start: float
    reads: int
    mean_age_seconds: float
    max_age_seconds: float
    stale_fraction: float
    error_fraction: float


class StalenessTimeline:
    """Per-item age-at-read dynamics, bucketed over simulated time.

    The paper's aggregate error rate says *how much* staleness was
    consumed; this sink shows *when* and *how old* — the lens the
    AoI/freshness literature uses.  For every answered
    :class:`CacheAccess` that consulted a cached entry it records the
    entry's age at read, then reports per-bucket read counts, mean/max
    age, the stale-served fraction and the error fraction.
    """

    def __init__(
        self, bucket_seconds: float = DEFAULT_STALENESS_BUCKET
    ) -> None:
        if bucket_seconds <= 0:
            raise ValueError(
                f"bucket width must be positive, got {bucket_seconds!r}"
            )
        self.bucket_seconds = float(bucket_seconds)
        #: bucket index -> [reads, age_sum, age_max, stale, errors].
        self._buckets: dict[int, list[float]] = {}

    def __repr__(self) -> str:
        return (
            f"<StalenessTimeline buckets={len(self._buckets)} "
            f"width={self.bucket_seconds:g}s>"
        )

    def attach(self, bus: EventBus) -> "StalenessTimeline":
        bus.subscribe(CacheAccess, self.on_access)
        return self

    def on_access(self, event: CacheAccess) -> None:
        age = event.age_seconds
        if age is None:
            return
        index = int(event.time // self.bucket_seconds)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = [0.0, 0.0, 0.0, 0.0, 0.0]
            self._buckets[index] = bucket
        bucket[0] += 1
        bucket[1] += age
        if age > bucket[2]:
            bucket[2] = age
        if event.stale_served:
            bucket[3] += 1
        if event.error:
            bucket[4] += 1

    def series(self) -> list[StalenessBucket]:
        """Chronological per-bucket aggregates (non-empty buckets only)."""
        out: list[StalenessBucket] = []
        for index in sorted(self._buckets):
            reads, age_sum, age_max, stale, errors = self._buckets[index]
            out.append(
                StalenessBucket(
                    start=index * self.bucket_seconds,
                    reads=int(reads),
                    mean_age_seconds=age_sum / reads,
                    max_age_seconds=age_max,
                    stale_fraction=stale / reads,
                    error_fraction=errors / reads,
                )
            )
        return out
