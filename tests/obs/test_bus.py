"""Unit tests for the typed event bus."""

from repro.obs.bus import EventBus
from repro.obs.events import (
    CacheAccess,
    CacheAdmit,
    CacheEvict,
    QueryComplete,
)


def access(time=1.0, **overrides):
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


class TestDispatch:
    def test_typed_subscription_sees_only_its_type(self):
        bus = EventBus()
        seen = []
        bus.subscribe(CacheAccess, seen.append)
        bus.emit(access())
        bus.emit(QueryComplete(time=2.0, client_id=0, query_id=1,
                               response_seconds=0.5, connected=True))
        assert len(seen) == 1
        assert isinstance(seen[0], CacheAccess)

    def test_dispatch_is_exact_type_not_isinstance(self):
        bus = EventBus()
        seen = []
        # CacheAdmit and CacheEvict are siblings; subscribing to one
        # must never deliver the other even if a hierarchy existed.
        bus.subscribe(CacheAdmit, seen.append)
        bus.emit(CacheEvict(time=1.0, client_id=0, cache="c",
                            key="k", size_bytes=10.0))
        assert seen == []

    def test_multiple_handlers_run_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(CacheAccess, lambda e: order.append("first"))
        bus.subscribe(CacheAccess, lambda e: order.append("second"))
        bus.emit(access())
        assert order == ["first", "second"]

    def test_catch_all_runs_after_typed_handlers(self):
        bus = EventBus()
        order = []
        bus.subscribe_all(lambda e: order.append("all"))
        bus.subscribe(CacheAccess, lambda e: order.append("typed"))
        bus.emit(access())
        assert order == ["typed", "all"]

    def test_emit_without_subscribers_is_silent(self):
        bus = EventBus()
        bus.emit(access())  # must not raise
        assert bus.counts == {"CacheAccess": 1}


class TestWants:
    def test_wants_false_on_fresh_bus(self):
        assert not EventBus().wants(CacheEvict)

    def test_wants_true_after_typed_subscription(self):
        bus = EventBus()
        bus.subscribe(CacheEvict, lambda e: None)
        assert bus.wants(CacheEvict)
        assert not bus.wants(CacheAdmit)

    def test_catch_all_wants_everything(self):
        bus = EventBus()
        bus.subscribe_all(lambda e: None)
        assert bus.wants(CacheEvict)
        assert bus.wants(QueryComplete)


class TestCounts:
    def test_counts_tally_per_type_name(self):
        bus = EventBus()
        bus.emit(access())
        bus.emit(access(time=2.0))
        bus.emit(QueryComplete(time=3.0, client_id=0, query_id=1,
                               response_seconds=0.1, connected=True))
        assert bus.counts == {"CacheAccess": 2, "QueryComplete": 1}

    def test_event_counter_sink_matches_bus_counts(self):
        bus = EventBus()
        counts = {}

        def count(event):
            name = type(event).__name__
            counts[name] = counts.get(name, 0) + 1

        bus.subscribe_all(count)
        for i in range(3):
            bus.emit(access(time=float(i)))
        assert counts == bus.counts


class TestEventShape:
    def test_events_are_frozen(self):
        import pytest

        event = access()
        with pytest.raises(AttributeError):
            event.hit = False  # type: ignore[misc]

    def test_optional_age_defaults_to_none(self):
        assert access().age_seconds is None
        assert access(age_seconds=12.5).age_seconds == 12.5
