"""Engine behaviour: dispatch, caps, trace decoding, reconciliation."""

import dataclasses
import json
import tempfile
import typing as t
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.invariants import (
    CacheConservationChecker,
    CausalityChecker,
    ChannelConservationChecker,
    CoherenceChecker,
    InvariantChecker,
    InvariantEngine,
    RunContext,
    check_trace,
    decode_record,
    default_checkers,
)
from repro.obs.bus import EventBus
from repro.obs.events import (
    ALL_EVENT_TYPES,
    CacheAccess,
    CacheAdmit,
    CacheEvict,
    CacheReject,
    QueryComplete,
    QueryDegraded,
    RemoteRound,
    ReplyTimeout,
    RequestSent,
)
from repro.obs.sinks import encode_event


def access(time, **overrides):
    fields = dict(
        time=time,
        client_id=0,
        key="k",
        hit=False,
        error=False,
        answered=True,
        connected=True,
    )
    fields.update(overrides)
    return CacheAccess(**fields)


class RecordingChecker(InvariantChecker):
    checker_id = "REC"
    title = "records what it sees"
    event_types = (CacheAccess,)

    def __init__(self):
        super().__init__()
        self.seen = []
        self.finalized = 0
        self.reconciled = []

    def on_event(self, event):
        self.seen.append(event)

    def finalize(self):
        self.finalized += 1

    def reconcile(self, context):
        self.reconciled.append(context)


class FiringChecker(InvariantChecker):
    checker_id = "FIRE"
    title = "one violation per event"
    event_types = (CacheAccess,)

    def on_event(self, event):
        self.violation("FIRE001", event.time, "scope", "boom")


class TestDispatch:
    def test_checker_sees_only_its_types(self):
        checker = RecordingChecker()
        engine = InvariantEngine([checker])
        engine.feed(access(1.0))
        engine.feed(QueryComplete(2.0, 0, 1, 1.0, True))
        assert [e.time for e in checker.seen] == [1.0]
        assert engine.events_checked == 2

    def test_attach_subscribes_wanted_types(self):
        bus = EventBus()
        checker = RecordingChecker()
        InvariantEngine([checker]).attach(bus)
        assert bus.wants(CacheAccess)
        bus.emit(access(3.0))
        assert len(checker.seen) == 1

    def test_attach_makes_guarded_cache_events_wanted(self):
        bus = EventBus()
        InvariantEngine().attach(bus)
        assert bus.wants(CacheAdmit)

    def test_default_checkers_are_fresh_instances(self):
        a, b = default_checkers(), default_checkers()
        assert {c.checker_id for c in a} == {c.checker_id for c in b}
        assert not any(x is y for x in a for y in b)


class TestViolationCap:
    def test_overflow_is_counted_not_kept(self):
        engine = InvariantEngine([FiringChecker()], max_violations=3)
        for i in range(10):
            engine.feed(access(float(i)))
        report = engine.report()
        assert len(report.violations) == 3
        assert report.dropped_violations == 7
        assert report.total_violations == 10
        assert not report.ok
        assert "10 violation(s)" in report.summary()

    def test_finalize_is_idempotent(self):
        checker = RecordingChecker()
        engine = InvariantEngine([checker])
        engine.finalize()
        engine.report()
        engine.reconcile(RunContext())
        assert checker.finalized == 1
        assert len(checker.reconciled) == 1


class TestDecodeRecord:
    def test_round_trips_an_event(self):
        from repro.obs.sinks import encode_event

        event = access(2.5, hit=True, age_seconds=1.25)
        decoded = decode_record(encode_event(event))
        assert decoded == event

    def test_lists_become_tuples(self):
        # JSON has no tuples: a list-valued field comes back hashable.
        record = {
            "type": "CacheEvict",
            "time": 1.0,
            "client_id": 0,
            "cache": "object-cache",
            "key": ["oid-7", "name"],
            "size_bytes": 64,
        }
        decoded = decode_record(record)
        assert isinstance(decoded, CacheEvict)
        assert decoded.key == ("oid-7", "name")

    def test_cache_reject_round_trips(self):
        record = {
            "type": "CacheReject",
            "time": 3.0,
            "client_id": 4,
            "cache": "object-cache",
            "key": "k",
            "size_bytes": 64,
        }
        decoded = decode_record(record)
        assert isinstance(decoded, CacheReject)
        assert decoded.size_bytes == 64

    def test_unknown_type_is_none(self):
        assert decode_record({"type": "NotAnEvent", "time": 1.0}) is None

    def test_missing_required_field_is_none(self):
        assert decode_record({"type": "CacheAccess", "time": 1.0}) is None

    def test_missing_optional_field_uses_default(self):
        record = {
            "type": "CacheAdmit",
            "time": 1.0,
            "client_id": 0,
            "cache": "c",
            "key": "k",
            "size_bytes": 10,
            "evictions": 0,
        }
        decoded = decode_record(record)
        assert decoded.expires_at == float("inf")
        assert decoded.capacity_bytes == 0


#: The line from a hand-edited trace that used to crash the cache
#: conservation checker: it parses, but ``size_bytes`` is a string.
MISTYPED_ADMIT = (
    '{"type": "CacheAdmit", "time": 2.0, "client_id": 0, "cache": "c", '
    '"key": "k", "size_bytes": "big", "evictions": 0}'
)


class TestDecodeRefusesMistypedRecords:
    def record(self, **overrides):
        record = json.loads(MISTYPED_ADMIT)
        record["size_bytes"] = 10
        record.update(overrides)
        return record

    def test_well_typed_record_decodes(self):
        assert isinstance(decode_record(self.record()), CacheAdmit)

    def test_string_for_an_int_is_refused(self):
        assert decode_record(json.loads(MISTYPED_ADMIT)) is None

    def test_string_time_is_refused(self):
        record = encode_event(access(1.0))
        record["time"] = "1.0"
        assert decode_record(record) is None

    def test_bool_is_not_an_int(self):
        assert decode_record(self.record(client_id=True)) is None

    def test_int_is_a_float(self):
        decoded = decode_record(self.record(time=2, expires_at=10))
        assert decoded.time == 2 and decoded.expires_at == 10

    def test_none_only_where_declared(self):
        assert decode_record(self.record(evictions=None)) is None
        record = encode_event(access(1.0))
        assert record["age_seconds"] is None
        assert decode_record(record) is not None

    def test_unhashable_key_is_refused(self):
        assert decode_record(self.record(key={"oid": 1})) is None
        assert decode_record(self.record(key=[["Root#1"], "a0"])) is None


def _well_typed(hint):
    """Values of the declared field type ``hint``, as the domain emits
    them (cache keys as strings or ``(oid, attribute)`` pairs)."""
    if hint is t.Any:
        return st.one_of(
            st.text(max_size=8),
            st.tuples(st.text(max_size=8), st.none() | st.text(max_size=4)),
        )
    scalars = {
        float: st.floats(allow_nan=False),
        int: st.integers(),
        bool: st.booleans(),
        str: st.text(max_size=8),
        type(None): st.none(),
    }
    return st.one_of(*(scalars[m] for m in t.get_args(hint) or (hint,)))


events = st.sampled_from(ALL_EVENT_TYPES).flatmap(
    lambda cls: st.builds(
        cls, *map(_well_typed, t.get_type_hints(cls).values())
    )
)

#: JSON values of every shape, to plant in a field that cannot take
#: them: wrong scalars for typed fields, unhashable ones for keys.
WRONG_VALUES = ("text", 7, 7.5, True, None, [1, 2], {"a": 1}, [[1]])


def _fits(value, hint):
    if hint is t.Any:
        return not isinstance(value, dict) and value != [[1]]
    allowed = {float: (float, int), int: (int,), bool: (bool,),
               str: (str,), type(None): (type(None),)}
    members = t.get_args(hint) or (hint,)
    return any(type(value) in allowed[m] for m in members)


class TestTraceCodec:
    @settings(max_examples=300, deadline=None)
    @given(event=events)
    def test_records_round_trip(self, event):
        record = encode_event(event)
        assert list(record) == ["type", *type(event)._fields]
        decoded = decode_record(json.loads(json.dumps(record)))
        assert type(decoded) is type(event)
        assert encode_event(decoded) == record

    @settings(max_examples=150, deadline=None)
    @given(event=events, data=st.data())
    def test_a_mistyped_field_is_counted_never_raised(self, event, data):
        hints = t.get_type_hints(type(event))
        name = data.draw(st.sampled_from(type(event)._fields))
        wrong = data.draw(
            st.sampled_from(
                [v for v in WRONG_VALUES if not _fits(v, hints[name])]
            )
        )
        record = encode_event(event)
        record[name] = wrong
        assert decode_record(record) is None
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "trace.jsonl"
            path.write_text(json.dumps(record) + "\n")
            report = check_trace(str(path))
        assert report.malformed_lines == 1
        assert report.unknown_records == 0
        assert report.events_checked == 0


class TestCheckTrace:
    def test_mistyped_record_is_counted_as_malformed(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(MISTYPED_ADMIT + "\n")
        report = check_trace(str(path))
        assert report.malformed_lines == 1
        assert report.unknown_records == 0
        assert report.events_checked == 0
        assert report.ok

    def test_record_missing_a_field_is_malformed(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "CacheAccess", "time": 1.0}\n')
        report = check_trace(str(path))
        assert (report.malformed_lines, report.unknown_records) == (1, 0)

    def test_malformed_lines_are_skipped_and_counted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        lines = [
            json.dumps(
                {"type": "QueryComplete", "time": 1.0, "client_id": 0,
                 "query_id": 1, "response_seconds": 1.0,
                 "connected": True}
            ),
            '{"type": "CacheAccess", "time": 2.0, "cli',  # truncated
        ]
        path.write_text("\n".join(lines) + "\n")
        report = check_trace(str(path))
        assert report.malformed_lines == 1
        assert report.events_checked == 1
        # The complete-without-access law still fires on what decoded.
        assert {v.checker_id for v in report.violations} == {"CAU002"}

    def test_undecodable_line_is_malformed_and_its_neighbours_checked(
        self, tmp_path
    ):
        path = tmp_path / "trace.jsonl"
        good = [
            json.dumps(encode_event(access(t))).encode() + b"\n"
            for t in (1.0, 2.0)
        ]
        path.write_bytes(good[0] + b"\xff\xfe\x00garbage\n" + good[1])
        report = check_trace(str(path))
        assert (report.malformed_lines, report.unknown_records) == (1, 0)
        assert report.events_checked == 2

    def test_unknown_records_are_counted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "FutureEvent", "time": 1.0}\n')
        report = check_trace(str(path))
        assert report.unknown_records == 1
        assert report.events_checked == 0
        assert report.ok

    def test_empty_trace_is_ok(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("")
        assert check_trace(str(path)).ok


@dataclasses.dataclass
class FakeSeries:
    sum: int
    count: int


@dataclasses.dataclass
class FakeMetrics:
    hit: FakeSeries
    error: FakeSeries
    stale_served_accesses: int = 0
    unanswered_accesses: int = 0


@dataclasses.dataclass
class FakeClientCounters:
    """The lifecycle counters CAU004 reads, matching ``_degraded_round``."""

    queries: int = 1
    retries: int = 1
    timeouts: int = 2
    degraded_queries: int = 1
    uplink_series: FakeSeries = dataclasses.field(
        default_factory=lambda: FakeSeries(250, 2)
    )


def _degraded_round():
    """One query whose two attempts both time out, then degrade."""
    return [
        RemoteRound(1.0, 0, 1, 0),
        RequestSent(1.0, 0, 1, 0, 100),
        ReplyTimeout(21.0, 0, 1, 0),
        RemoteRound(21.0, 0, 1, 1),
        RequestSent(22.0, 0, 1, 1, 150),
        ReplyTimeout(42.0, 0, 1, 1),
        QueryDegraded(42.0, 0, 1, 0),
        access(42.0),
        QueryComplete(42.0, 0, 1, 41.0, True),
    ]


class TestReconcile:
    def test_matching_client_counters_are_clean(self):
        engine = InvariantEngine([CausalityChecker()])
        for event in _degraded_round():
            engine.feed(event)
        engine.reconcile(RunContext(metrics={0: FakeClientCounters()}))
        assert engine.report().ok

    @pytest.mark.parametrize(
        "counters",
        [
            FakeClientCounters(queries=2),
            FakeClientCounters(retries=0),
            FakeClientCounters(timeouts=3),
            FakeClientCounters(degraded_queries=0),
            FakeClientCounters(uplink_series=FakeSeries(251, 2)),
        ],
        ids=["queries", "retries", "timeouts", "degraded", "uplink"],
    )
    def test_client_counter_off_by_one_is_one_violation(self, counters):
        engine = InvariantEngine([CausalityChecker()])
        for event in _degraded_round():
            engine.feed(event)
        engine.reconcile(RunContext(metrics={0: counters}))
        (violation,) = engine.report().violations
        assert violation.checker_id == "CAU004"
        assert violation.scope == "client-0"

    def test_coherence_counts_must_match_metrics(self):
        checker = CoherenceChecker()
        engine = InvariantEngine([checker])
        engine.feed(access(1.0, hit=True))
        context = RunContext(
            metrics={0: FakeMetrics(FakeSeries(0, 1), FakeSeries(0, 1))}
        )
        engine.reconcile(context)
        report = engine.report()
        assert {v.checker_id for v in report.violations} == {"COH004"}

    def test_matching_metrics_are_clean(self):
        checker = CoherenceChecker()
        engine = InvariantEngine([checker])
        engine.feed(access(1.0, hit=True))
        context = RunContext(
            metrics={0: FakeMetrics(FakeSeries(1, 1), FakeSeries(0, 1))}
        )
        engine.reconcile(context)
        assert engine.report().ok

    def test_cache_ledger_must_match_live_cache(self):
        @dataclasses.dataclass
        class FakeCache:
            used_bytes: int
            admissions: int
            evictions: int
            rejections: int = 0

        engine = InvariantEngine([CacheConservationChecker()])
        engine.feed(
            CacheAdmit(1.0, 0, "object-cache", "k", 100, 0, 50.0, 0)
        )
        context = RunContext(
            caches={(0, "object-cache"): FakeCache(64, 1, 0)}
        )
        engine.reconcile(context)
        assert {v.checker_id for v in engine.report().violations} == {
            "CON007"
        }

    def test_rejection_ledger_must_match_live_cache(self):
        @dataclasses.dataclass
        class FakeCache:
            used_bytes: int = 0
            admissions: int = 0
            evictions: int = 0
            rejections: int = 0

        engine = InvariantEngine([CacheConservationChecker()])
        engine.feed(
            CacheReject(2.0, 0, "object-cache", "other-key", 100)
        )
        context = RunContext(
            caches={(0, "object-cache"): FakeCache(rejections=2)}
        )
        engine.reconcile(context)
        assert {v.checker_id for v in engine.report().violations} == {
            "CON007"
        }

    def test_matching_rejection_ledger_is_clean(self):
        @dataclasses.dataclass
        class FakeCache:
            used_bytes: int = 0
            admissions: int = 0
            evictions: int = 0
            rejections: int = 0

        engine = InvariantEngine([CacheConservationChecker()])
        engine.feed(
            CacheReject(2.0, 0, "object-cache", "other-key", 100)
        )
        context = RunContext(
            caches={(0, "object-cache"): FakeCache(rejections=1)}
        )
        engine.reconcile(context)
        assert engine.report().ok

    def test_channel_totals_must_match_stats(self):
        @dataclasses.dataclass
        class FakeStats:
            bytes_carried: float = 0.0
            bytes_delivered: float = 0.0
            bytes_aborted: float = 0.0
            messages_dropped: int = 0
            messages_aborted: int = 0

        engine = InvariantEngine([ChannelConservationChecker()])
        context = RunContext(
            channel_stats={"uplink": FakeStats(bytes_carried=128.0)},
            raw_bytes=128.0,
        )
        engine.reconcile(context)
        tripped = {v.checker_id for v in engine.report().violations}
        assert tripped == {"CON006"}
