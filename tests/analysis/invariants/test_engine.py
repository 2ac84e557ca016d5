"""Engine behaviour: dispatch, caps, trace decoding, reconciliation."""

import dataclasses
import json

from repro.analysis.invariants import (
    CacheConservationChecker,
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
    CacheAccess,
    CacheAdmit,
    CacheEvict,
    CacheReject,
    QueryComplete,
)


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


class TestCheckTrace:
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


class TestReconcile:
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
