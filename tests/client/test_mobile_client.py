"""Unit tests for the mobile client's query execution protocol."""

import pytest

from repro.analysis.invariants import InvariantEngine
from repro.analysis.invariants.conservation import QueryConservationChecker
from repro.client.mobile_client import MobileClient
from repro.core.granularity import CachingGranularity
from repro.net.disconnect import DisconnectionSchedule
from repro.net.faults import FaultConfig, RecoveryPolicy
from repro.net.network import Network
from repro.obs.events import (
    QueryComplete,
    QueryDegraded,
    RemoteRound,
    RequestSent,
)
from repro.oodb.database import build_default_database
from repro.oodb.objects import OID
from repro.oodb.query import AttributeAccess, Query, QueryKind
from repro.oodb.server import DatabaseServer
from repro.sim.environment import Environment
from repro.sim.rand import RandomStream
from repro.workload.heat import UniformHeat
from repro.workload.queries import QueryWorkload


class Harness:
    """One server + one client wired over a real simulated network."""

    def __init__(self, granularity="AC", schedule=None, num_objects=60,
                 replacement="lru", cache_objects=40, faults=None,
                 recovery=None):
        self.env = Environment()
        self.database = build_default_database(num_objects)
        self.network = Network(
            self.env,
            schedule=schedule,
            faults=faults,
            fault_rng=RandomStream(3, "faults") if faults else None,
        )
        self.server = DatabaseServer(
            self.env, self.database, self.network, buffer_capacity=10
        )
        rng = RandomStream(2, "harness")
        workload = QueryWorkload(
            client_id=0,
            database=self.database,
            heat=UniformHeat(self.database.oids("Root"), rng.fork("heat")),
            rng=rng.fork("queries"),
            selectivity=3,
        )
        self.client = MobileClient(
            client_id=0,
            env=self.env,
            network=self.network,
            server=self.server,
            database=self.database,
            workload=workload,
            arrivals=None,  # driven manually via execute()
            granularity=CachingGranularity.parse(granularity),
            replacement_spec=replacement,
            cache_objects=cache_objects,
            recovery=recovery,
            recovery_rng=RandomStream(4, "backoff") if recovery else None,
        )
        self.server.start()

    def run_query(self, accesses, kind=QueryKind.ASSOCIATIVE):
        query = Query(
            query_id=1, client_id=0, kind=kind, accesses=accesses
        )
        done = []

        def wrapper():
            yield from self.client.execute(query)
            done.append(True)

        self.env.process(wrapper())
        while not done:
            self.env.step()


def reads(*pairs):
    return [AttributeAccess(OID("Root", n), attr) for n, attr in pairs]


class TestAttributeCaching:
    def test_miss_then_hit(self):
        harness = Harness("AC")
        harness.run_query(reads((1, "a0")))
        metrics = harness.client.metrics
        assert metrics.hit.count == 1
        assert metrics.hit.sum == 0
        assert harness.client.cache.lookup((OID("Root", 1), "a0")) is not None
        harness.run_query(reads((1, "a0")))
        assert metrics.hit.sum == 1
        assert metrics.remote_rounds == 1  # second query was fully local

    def test_response_time_includes_wireless_round(self):
        harness = Harness("AC")
        harness.run_query(reads((1, "a0")))
        # At 19.2 kbps even small messages take tens of milliseconds.
        assert harness.client.metrics.response.mean > 0.05

    def test_cached_value_matches_server(self):
        harness = Harness("AC")
        harness.run_query(reads((2, "a3")))
        entry = harness.client.cache.lookup((OID("Root", 2), "a3"))
        assert entry.value == harness.database.get(OID("Root", 2)).read("a3")

    def test_multiple_attributes_per_object(self):
        harness = Harness("AC")
        harness.run_query(reads((1, "a0"), (1, "a1"), (2, "a0")))
        assert len(harness.client.cache) == 3


class TestObjectCaching:
    def test_whole_object_cached(self):
        harness = Harness("OC")
        harness.run_query(reads((1, "a0")))
        entry = harness.client.cache.lookup((OID("Root", 1), None))
        assert entry is not None
        assert entry.value["a5"] == harness.database.get(
            OID("Root", 1)
        ).read("a5")

    def test_other_attributes_hit_after_prefetch(self):
        harness = Harness("OC")
        harness.run_query(reads((1, "a0")))
        harness.run_query(reads((1, "a7")))  # never requested explicitly
        metrics = harness.client.metrics
        assert metrics.hit.sum == 1
        assert metrics.remote_rounds == 1


class TestUpdates:
    def test_update_writes_through_and_refreshes(self):
        harness = Harness("AC")
        oid = OID("Root", 1)
        access = AttributeAccess(oid, "a0", is_update=True)
        harness.run_query([access])
        server_value = harness.database.get(oid).read("a0")
        entry = harness.client.cache.lookup((oid, "a0"))
        assert entry.value == server_value
        assert entry.version == 1
        assert harness.server.updates_applied == 1

    def test_update_of_cached_item_still_contacts_server(self):
        harness = Harness("AC")
        oid = OID("Root", 1)
        harness.run_query(reads((1, "a0")))
        access = AttributeAccess(oid, "a0", is_update=True)
        harness.run_query([access])
        assert harness.client.metrics.remote_rounds == 2
        assert harness.server.updates_applied == 1


class TestDisconnection:
    def make_disconnected(self, granularity="AC"):
        schedule = DisconnectionSchedule({0: [(0.0, 1e9)]})
        return Harness(granularity, schedule=schedule)

    def test_no_traffic_while_disconnected(self):
        harness = self.make_disconnected()
        harness.run_query(reads((1, "a0")))
        assert harness.client.metrics.remote_rounds == 0
        assert harness.network.bytes_upstream == 0
        assert harness.client.metrics.unanswered_accesses == 1

    def test_expired_entry_served_stale_when_disconnected(self):
        schedule = DisconnectionSchedule({0: [(100.0, 1e9)]})
        harness = Harness("AC", schedule=schedule)
        oid = OID("Root", 1)
        harness.run_query(reads((1, "a0")))  # cached while connected
        # Another writer updates the attribute at the server, and the
        # cached entry's refresh deadline passes.
        harness.database.get(oid).write("a0", 999, now=50.0)
        entry = harness.client.cache.lookup((oid, "a0"))
        entry.expires_at = 60.0
        harness.env._now = 200.0  # inside the disconnection window
        harness.run_query(reads((1, "a0")))
        metrics = harness.client.metrics
        assert metrics.stale_served_accesses == 1
        assert metrics.error.sum == 1  # the stale read is an error

    def test_valid_entry_hit_while_disconnected(self):
        schedule = DisconnectionSchedule({0: [(100.0, 1e9)]})
        harness = Harness("AC", schedule=schedule)
        harness.run_query(reads((1, "a0")))
        harness.env._now = 200.0
        harness.run_query(reads((1, "a0")))
        assert harness.client.metrics.hit.sum == 1
        assert harness.client.metrics.disconnected_queries == 1


class TestDisconnectionMidQuery:
    """A disconnection window that opens while a query is in flight.

    Every request is lost, each wait times out after 1 s and each
    back-off lasts exactly 1 s, so attempt ``n`` is sent at about
    ``2n`` s and the back-off before it spans ``(2n - 1, 2n)``.
    """

    LOSSY = FaultConfig(loss_rate=1.0)
    RETRIES = RecoveryPolicy(
        timeout_seconds=1.0, retry_budget=3, backoff_jitter=0.0
    )

    def run(self, window_start, faults=None, recovery=None):
        schedule = DisconnectionSchedule({0: [(window_start, 1e9)]})
        harness = Harness(
            "AC", schedule=schedule, faults=faults, recovery=recovery
        )
        events = []
        for event_type in (QueryComplete, QueryDegraded, RemoteRound,
                           RequestSent):
            harness.client.bus.subscribe(event_type, events.append)
        engine = InvariantEngine([QueryConservationChecker()]).attach(
            harness.client.bus
        )
        harness.run_query(reads((1, "a0")))
        return harness, events, engine.report()

    def test_query_keeps_the_connectivity_read_at_issue(self):
        # The window opens while the request is still on the uplink.
        harness, events, __ = self.run(window_start=0.001)
        assert not harness.network.is_connected(0)
        (complete,) = [e for e in events if isinstance(e, QueryComplete)]
        assert complete.connected
        assert harness.client.metrics.remote_rounds == 1
        assert harness.client.cache.lookup((OID("Root", 1), "a0"))

    def test_remote_round_reprobes_before_every_retry(self):
        # Connected for the back-off before attempt 1, disconnected by
        # the end of the one before attempt 2: no later attempt is sent.
        __, events, __ = self.run(
            window_start=3.5, faults=self.LOSSY, recovery=self.RETRIES
        )
        rounds = [e.attempt for e in events if isinstance(e, RemoteRound)]
        sent = [e.attempt for e in events if isinstance(e, RequestSent)]
        assert rounds == [0, 1, 2]
        assert sent == [0, 1]

    def test_backoff_into_a_window_degrades_the_query_once(self):
        __, events, report = self.run(
            window_start=1.5, faults=self.LOSSY, recovery=self.RETRIES
        )
        outcome = [
            type(e) for e in events
            if isinstance(e, (QueryComplete, QueryDegraded))
        ]
        assert outcome == [QueryDegraded, QueryComplete]
        assert [e.attempt for e in events if isinstance(e, RequestSent)] == [0]
        assert report.ok, report.summary()


class TestErrorOracle:
    def test_stale_hit_counts_as_error(self):
        harness = Harness("AC")
        oid = OID("Root", 1)
        harness.run_query(reads((1, "a0")))
        # Server-side write while the entry is still "valid" (infinite
        # refresh time): the next local read is an error.
        harness.database.get(oid).write("a0", 1234, now=harness.env.now)
        harness.run_query(reads((1, "a0")))
        metrics = harness.client.metrics
        assert metrics.hit.sum == 1
        assert metrics.error.sum == 1

    def test_object_granularity_error_inflation(self):
        """Under OC, a write to ANY attribute poisons the whole object."""
        harness = Harness("OC")
        oid = OID("Root", 1)
        harness.run_query(reads((1, "a0")))
        harness.database.get(oid).write("a7", 1, now=harness.env.now)
        harness.run_query(reads((1, "a0")))  # a0 untouched, still an error
        assert harness.client.metrics.error.sum == 1


class TestNoCaching:
    def test_nc_uses_memory_sized_cache_with_lru(self):
        harness = Harness("NC")
        assert harness.client.cache.capacity_bytes == 30 * 1024
        assert harness.client.cache.policy.name == "lru"

    def test_nc_still_gets_small_hit_ratio(self):
        harness = Harness("NC")
        harness.run_query(reads((1, "a0")))
        harness.run_query(reads((1, "a1")))  # same object, memory hit
        assert harness.client.metrics.hit.sum == 1


class TestExistentList:
    def test_existent_suppresses_retransmission(self):
        harness = Harness("AC")
        harness.run_query(reads((1, "a0"), (1, "a1")))
        bytes_after_first = harness.client.metrics.goodput_bytes
        # a0 cached and valid; only a2 should come back.
        harness.run_query(reads((1, "a0"), (1, "a2")))
        delta = harness.client.metrics.goodput_bytes - bytes_after_first
        first_reply_items = 2
        assert delta < bytes_after_first * (
            first_reply_items - 0.5
        ) / first_reply_items


class TestPageCaching:
    def test_page_mates_cached_alongside_request(self):
        harness = Harness("PC")
        harness.run_query(reads((5, "a0")))
        # Object 5's page (objects 4..7) is cached wholesale.
        for number in (4, 5, 6, 7):
            assert harness.client.cache.lookup(
                (OID("Root", number), None)
            ) is not None

    def test_page_mates_hit_later(self):
        harness = Harness("PC")
        harness.run_query(reads((5, "a0")))
        harness.run_query(reads((6, "a3")))  # page-mate, never requested
        assert harness.client.metrics.hit.sum == 1
        assert harness.client.metrics.remote_rounds == 1

    def test_held_page_mates_suppress_retransmission(self):
        harness = Harness("PC")
        harness.run_query(reads((5, "a0")))
        received_once = harness.client.metrics.goodput_bytes
        # Expire object 5 only; page-mates stay valid and are listed as
        # held, so the refresh reply carries a single object.
        entry = harness.client.cache.lookup((OID("Root", 5), None))
        entry.expires_at = harness.env.now
        harness.env._now = harness.env.now + 1.0
        harness.run_query(reads((5, "a0")))
        delta = harness.client.metrics.goodput_bytes - received_once
        assert delta < received_once / 2

    def test_page_transfer_slower_than_object(self):
        page = Harness("PC")
        page.run_query(reads((5, "a0")))
        obj = Harness("OC")
        obj.run_query(reads((5, "a0")))
        assert (
            page.client.metrics.response.mean
            > 2 * obj.client.metrics.response.mean
        )


class TestInvalidationReportClient:
    def test_report_invalidates_cached_entry(self):
        harness = Harness("AC")
        harness.client.coherence_mode = "invalidation-report"
        from repro.core.invalidation import (
            InvalidationListener,
            InvalidationReport,
        )

        harness.client.invalidation = InvalidationListener(1000.0)
        harness.run_query(reads((1, "a0")))
        key = (OID("Root", 1), "a0")
        assert harness.client.cache.lookup(key) is not None
        harness.client._on_report(
            InvalidationReport(1, harness.env.now, (key,))
        )
        assert harness.client.cache.lookup(key) is None

    def test_missed_reports_purge_cache(self):
        harness = Harness("AC")
        from repro.core.invalidation import InvalidationListener

        harness.client.coherence_mode = "invalidation-report"
        harness.client.invalidation = InvalidationListener(100.0)
        harness.run_query(reads((1, "a0")))
        assert len(harness.client.cache) > 0
        # Time passes far beyond 1.5 intervals with no reports.
        harness.env._now = harness.env.now + 1_000.0
        harness.run_query(reads((2, "a0")))
        assert harness.client.invalidation.cache_purges == 1
