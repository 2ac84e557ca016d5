"""Unit tests for the trace writer, staleness timeline and profiler."""

import json

import pytest

from repro.obs.bus import EventBus
from repro.obs.events import CacheAccess, CacheEvict, QueryComplete
from repro.obs.profiler import WallClockProfiler, bucket_for
from repro.obs.sinks import (
    StalenessTimeline,
    TraceSink,
    encode_event,
    jsonify,
    read_trace,
    summarize_trace,
)


def access(time, **overrides):
    fields = dict(
        time=time,
        client_id=0,
        key="oid-1",
        hit=True,
        error=False,
        answered=True,
        connected=True,
    )
    fields.update(overrides)
    return CacheAccess(**fields)


class TestJsonify:
    def test_scalars_pass_through(self):
        assert jsonify(None) is None
        assert jsonify(True) is True
        assert jsonify(3) == 3
        assert jsonify(2.5) == 2.5
        assert jsonify("x") == "x"

    def test_sequences_recurse(self):
        assert jsonify((1, "a", (2.0,))) == [1, "a", [2.0]]

    def test_opaque_keys_stringify(self):
        class Oid:
            def __str__(self):
                return "Root:17"

        assert jsonify(Oid()) == "Root:17"
        # Composite cache keys (oid, attribute) survive as strings.
        assert jsonify((Oid(), "salary")) == ["Root:17", "salary"]


class TestEncodeEvent:
    def test_type_and_every_field_present(self):
        record = encode_event(access(4.0, age_seconds=1.5))
        assert record["type"] == "CacheAccess"
        assert record["time"] == 4.0
        assert record["hit"] is True
        assert record["age_seconds"] == 1.5
        assert json.dumps(record)  # JSON-serialisable as a whole


class TestTraceSink:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        bus = EventBus()
        sink = TraceSink(path, buffer_events=2).attach(bus)
        for i in range(5):
            bus.emit(access(float(i)))
        bus.emit(QueryComplete(time=9.0, client_id=1, query_id=3,
                               response_seconds=0.25, connected=True))
        sink.close()
        records = list(read_trace(path))
        assert len(records) == 6
        assert [r["type"] for r in records[:5]] == ["CacheAccess"] * 5
        assert records[5]["type"] == "QueryComplete"
        assert records[5]["response_seconds"] == 0.25

    def test_buffering_bounds_unflushed_lines(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        bus = EventBus()
        sink = TraceSink(path, buffer_events=10).attach(bus)
        for i in range(25):
            bus.emit(access(float(i)))
        # Two full buffers flushed, 5 lines still pending.
        on_disk = sum(1 for __ in read_trace(path))
        assert on_disk == 20
        assert sink.events_written == 25
        sink.close()
        assert sum(1 for __ in read_trace(path)) == 25

    def test_close_is_idempotent_and_stops_recording(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        bus = EventBus()
        sink = TraceSink(path).attach(bus)
        bus.emit(access(1.0))
        sink.close()
        sink.close()
        bus.emit(access(2.0))  # after close: ignored, not an error
        assert sink.events_written == 1

    def test_rejects_nonpositive_buffer(self, tmp_path):
        with pytest.raises(ValueError):
            TraceSink(str(tmp_path / "t.jsonl"), buffer_events=0)

    def test_summarize_trace(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        bus = EventBus()
        sink = TraceSink(path).attach(bus)
        bus.emit(access(10.0))
        bus.emit(access(30.0))
        bus.emit(CacheEvict(time=20.0, client_id=0, cache="c",
                            key="k", size_bytes=64.0))
        sink.close()
        summary = summarize_trace(path)
        assert summary["events"] == 3
        assert summary["counts"] == {"CacheAccess": 2, "CacheEvict": 1}
        assert summary["first_time"] == 10.0
        assert summary["last_time"] == 30.0

    def test_summarize_empty_trace(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        TraceSink(path).close()
        summary = summarize_trace(path)
        assert summary["events"] == 0
        assert summary["counts"] == {}
        assert summary["first_time"] is None


class TestStalenessTimeline:
    def test_buckets_aggregate_age_stats(self):
        bus = EventBus()
        timeline = StalenessTimeline(bucket_seconds=100.0).attach(bus)
        bus.emit(access(10.0, age_seconds=4.0))
        bus.emit(access(90.0, age_seconds=8.0, stale_served=True,
                        hit=False, error=True))
        bus.emit(access(150.0, age_seconds=2.0))
        series = timeline.series()
        assert len(series) == 2
        first = series[0]
        assert first.start == 0.0
        assert first.reads == 2
        assert first.mean_age_seconds == pytest.approx(6.0)
        assert first.max_age_seconds == 8.0
        assert first.stale_fraction == pytest.approx(0.5)
        assert first.error_fraction == pytest.approx(0.5)
        assert series[1].start == 100.0
        assert series[1].reads == 1

    def test_accesses_without_age_are_ignored(self):
        bus = EventBus()
        timeline = StalenessTimeline().attach(bus)
        bus.emit(access(10.0))  # miss-style access: no cached entry age
        assert timeline.series() == []

    def test_rejects_nonpositive_bucket(self):
        with pytest.raises(ValueError):
            StalenessTimeline(bucket_seconds=0.0)


class TestProfiler:
    def test_bucket_for_strips_instance_indices(self):
        assert bucket_for("client-3") == "client"
        assert bucket_for("client-11") == "client"
        assert bucket_for("server-0-send-17") == "server-send"
        assert bucket_for("uplink") == "uplink"
        assert bucket_for("") == "kernel"
        assert bucket_for("42") == "kernel"

    def test_record_accumulates_and_snapshot_orders_by_share(self):
        profiler = WallClockProfiler()
        profiler.record("client-1", 0.2)
        profiler.record("client-2", 0.3)
        profiler.record("server-0", 0.1)
        snapshot = profiler.snapshot()
        assert list(snapshot) == ["client", "server"]
        assert snapshot["client"]["seconds"] == pytest.approx(0.5)
        assert snapshot["client"]["calls"] == 2.0
        assert snapshot["client"]["share"] == pytest.approx(0.8333, abs=1e-3)
        assert snapshot["server"]["share"] == pytest.approx(0.1667, abs=1e-3)

    def test_empty_snapshot(self):
        assert WallClockProfiler().snapshot() == {}


class TestTraceSinkContextManager:
    def test_with_block_flushes_and_closes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceSink(str(path), buffer_events=100) as sink:
            sink.on_event(access(1.0))
            sink.on_event(access(2.0))
        records = list(read_trace(str(path)))
        assert [r["time"] for r in records] == [1.0, 2.0]
        assert sink._file is None

    def test_exception_inside_with_still_flushes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError):
            with TraceSink(str(path), buffer_events=100) as sink:
                sink.on_event(access(1.0))
                raise RuntimeError("mid-run crash")
        assert [r["time"] for r in read_trace(str(path))] == [1.0]
        # Events after close are dropped, not crashed on.
        sink.on_event(access(2.0))
        assert [r["time"] for r in read_trace(str(path))] == [1.0]


class TestReadTraceMalformed:
    def test_raises_without_handler(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "CacheAccess", "time": 1.0}\n{oops\n')
        with pytest.raises(ValueError):
            list(read_trace(str(path)))

    def test_handler_skips_and_reports(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"type": "A", "time": 1.0}\n'
            "{truncated\n"
            "[1, 2, 3]\n"
            '{"type": "B", "time": 2.0}\n'
        )
        seen = []
        records = list(
            read_trace(
                str(path),
                on_malformed=lambda n, line, exc: seen.append((n, line)),
            )
        )
        assert [r["type"] for r in records] == ["A", "B"]
        # Both the bad JSON and the non-object line are reported with
        # their 1-based line numbers.
        assert [n for n, _ in seen] == [2, 3]

    def test_undecodable_bytes_are_a_malformed_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(
            b'{"type": "A", "time": 1.0}\n'
            b"\xff\xfe\x00garbage\n"
            b'{"type": "B", "time": 2.0}\n'
        )
        with pytest.raises(UnicodeDecodeError):
            list(read_trace(str(path)))
        seen = []
        records = list(
            read_trace(
                str(path),
                on_malformed=lambda n, line, exc: seen.append((n, exc)),
            )
        )
        assert [r["type"] for r in records] == ["A", "B"]
        ((line_number, error),) = seen
        assert line_number == 2
        assert isinstance(error, UnicodeDecodeError)


class TestSummarizeFilterAndTop:
    def _write(self, tmp_path):
        path = tmp_path / "t.jsonl"
        lines = []
        for i in range(6):
            lines.append(json.dumps(encode_event(access(float(i), key="hot"))))
        lines.append(json.dumps(encode_event(access(9.0, key="cold"))))
        lines.append(
            json.dumps(
                encode_event(
                    QueryComplete(10.0, 0, 1, 0.5, True)
                )
            )
        )
        lines.append("{broken")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_event_type_filter_restricts_everything(self, tmp_path):
        path = self._write(tmp_path)
        summary = summarize_trace(
            str(path), event_types=["QueryComplete"]
        )
        assert summary["counts"] == {"QueryComplete": 1}
        assert summary["events"] == 1
        assert summary["first_time"] == 10.0
        assert summary["last_time"] == 10.0
        assert summary["malformed_lines"] == 1

    def test_unfiltered_summary_counts_all(self, tmp_path):
        path = self._write(tmp_path)
        summary = summarize_trace(str(path))
        assert summary["counts"]["CacheAccess"] == 7
        assert summary["malformed_lines"] == 1

    def test_trace_top_ranks_hottest_keys(self, tmp_path):
        from repro.obs.sinks import trace_top

        path = self._write(tmp_path)
        top = trace_top(str(path), "CacheAccess", limit=1)
        assert top == [("hot", 6)]
        both = trace_top(str(path), "CacheAccess", limit=5)
        assert both == [("hot", 6), ("cold", 1)]

    def test_trace_top_groups_by_client_when_no_key(self, tmp_path):
        from repro.obs.sinks import trace_top

        path = self._write(tmp_path)
        top = trace_top(str(path), "QueryComplete", limit=3)
        assert top == [("client-0", 1)]

    def test_trace_top_rejects_bad_limit(self, tmp_path):
        from repro.obs.sinks import trace_top

        path = self._write(tmp_path)
        with pytest.raises(ValueError):
            trace_top(str(path), "CacheAccess", limit=0)
