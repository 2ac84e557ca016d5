"""Unit tests for the database server's request handling."""

import math

import pytest

from repro.core.granularity import CachingGranularity
from repro.errors import NetworkError
from repro.net.message import RequestMessage, UpdateValue
from repro.net.network import Network
from repro.oodb.database import build_default_database
from repro.oodb.objects import OID
from repro.oodb.server import DatabaseServer
from repro.sim.environment import Environment


@pytest.fixture()
def server():
    env = Environment()
    database = build_default_database(50)
    network = Network(env)
    return DatabaseServer(env, database, network, buffer_capacity=10)


def make_request(granularity, needed, existent=(), held=(), updates=None,
                 client_id=0):
    return RequestMessage(
        client_id=client_id,
        query_id=1,
        granularity=granularity,
        needed=needed,
        existent=tuple(existent),
        held=tuple(held),
        updates=updates or {},
    )


class TestAttributeServing:
    def test_returns_exactly_requested_attributes(self, server):
        oid = OID("Root", 1)
        request = make_request(
            CachingGranularity.ATTRIBUTE, {oid: ("a0", "a3")}
        )
        reply, trailer, service = server.serve(request)
        assert trailer is None
        assert service > 0
        assert [(i.oid, i.attribute) for i in reply.items] == [
            (oid, "a0"),
            (oid, "a3"),
        ]
        expected = server.database.get(oid).read("a0")
        assert reply.items[0].value == expected

    def test_item_versions_match_database(self, server):
        oid = OID("Root", 2)
        server.database.get(oid).write("a0", 123, now=1.0)
        request = make_request(CachingGranularity.ATTRIBUTE, {oid: ("a0",)})
        reply, __, __ = server.serve(request)
        assert reply.items[0].version == 1

    def test_refresh_time_infinite_without_writes(self, server):
        oid = OID("Root", 3)
        request = make_request(CachingGranularity.ATTRIBUTE, {oid: ("a0",)})
        reply, __, __ = server.serve(request)
        assert math.isinf(reply.items[0].refresh_time)


class TestObjectServing:
    def test_returns_whole_object(self, server):
        oid = OID("Root", 4)
        request = make_request(CachingGranularity.OBJECT, {oid: ()})
        reply, trailer, __ = server.serve(request)
        assert trailer is None
        item = reply.items[0]
        assert item.attribute is None
        assert set(item.value) == set(
            server.database.get(oid).class_def.attribute_names
        )
        assert item.payload_bytes == 12 * 80

    def test_object_version_reported(self, server):
        oid = OID("Root", 5)
        obj = server.database.get(oid)
        obj.write("a0", 1, now=1.0)
        obj.write("a1", 2, now=2.0)
        request = make_request(CachingGranularity.OBJECT, {oid: ()})
        reply, __, __ = server.serve(request)
        assert reply.items[0].version == 2


class TestUpdates:
    def test_update_applied_and_versioned(self, server):
        oid = OID("Root", 6)
        request = make_request(
            CachingGranularity.ATTRIBUTE,
            {oid: ("a0",)},
            updates={oid: (UpdateValue("a0", 777, 80),)},
        )
        reply, __, __ = server.serve(request)
        assert server.database.get(oid).read("a0") == 777
        assert server.updates_applied == 1
        # The reply returns the freshly written value and version.
        assert reply.items[0].value == 777
        assert reply.items[0].version == 1

    def test_write_statistics_feed_refresh_times(self, server):
        oid = OID("Root", 7)
        env = server.env

        def write_at(time, value):
            env._now = time  # unit test: drive the clock directly
            server.serve(
                make_request(
                    CachingGranularity.ATTRIBUTE,
                    {oid: ("a0",)},
                    updates={oid: (UpdateValue("a0", value, 80),)},
                )
            )

        write_at(0.0, 1)
        write_at(100.0, 2)
        write_at(200.0, 3)
        # Two gaps of 100 s each: mean 100, std 0 -> RT = 100 (beta 0).
        rt = server.attribute_estimator.refresh_time((oid, "a0"))
        assert rt == pytest.approx(100.0)


class TestHybridPrefetching:
    def test_no_prefetch_without_statistics(self, server):
        oid = OID("Root", 8)
        request = make_request(CachingGranularity.HYBRID, {oid: ("a0",)})
        reply, trailer, __ = server.serve(request)
        assert trailer is None
        assert [i.attribute for i in reply.items] == ["a0"]

    def test_prefetch_hot_attributes_in_trailer(self, server):
        hot_oid = OID("Root", 9)
        # Teach the tracker: a0 and a1 are clearly above the uniform
        # share of the three observed attributes, a2 clearly below.
        for attribute, count in (("a0", 55), ("a1", 35), ("a2", 10)):
            for __ in range(count):
                server.prefetch_tracker.record_access(0, "Root", (attribute,))
        request = make_request(CachingGranularity.HYBRID, {hot_oid: ("a0",)})
        reply, trailer, __ = server.serve(request)
        assert [i.attribute for i in reply.items] == ["a0"]
        assert trailer is not None
        assert trailer.is_trailer
        assert [i.attribute for i in trailer.items] == ["a1"]
        assert server.items_prefetched == 1

    def test_held_attributes_not_prefetched(self, server):
        oid = OID("Root", 10)
        for attribute, count in (("a0", 55), ("a1", 35), ("a2", 10)):
            for __ in range(count):
                server.prefetch_tracker.record_access(0, "Root", (attribute,))
        request = make_request(
            CachingGranularity.HYBRID,
            {oid: ("a0",)},
            held=[(oid, "a1")],
        )
        __, trailer, __ = server.serve(request)
        assert trailer is None

    def test_existent_feeds_statistics_but_held_does_not(self, server):
        oid = OID("Root", 11)
        request = make_request(
            CachingGranularity.HYBRID,
            {oid: ("a0",)},
            existent=[(oid, "a1")],
            held=[(oid, "a2")],
        )
        server.serve(request)
        probabilities = server.prefetch_tracker.access_probabilities(
            0, "Root"
        )
        assert probabilities.get("a1", 0) > 0
        assert probabilities.get("a2", 0) == 0


class TestDelivery:
    def test_duplicate_registration_rejected(self, server):
        server.register_client(1, lambda reply: None)
        with pytest.raises(NetworkError):
            server.register_client(1, lambda reply: None)

    def test_end_to_end_reply_via_downlink(self):
        env = Environment()
        database = build_default_database(20)
        network = Network(env)
        server = DatabaseServer(env, database, network)
        received = []
        server.register_client(0, received.append)
        server.start()
        oid = OID("Root", 1)
        server.inbox.put(
            make_request(CachingGranularity.ATTRIBUTE, {oid: ("a0",)})
        )
        env.run(until=60.0)
        assert len(received) == 1
        assert received[0].items[0].oid == oid
        # The reply spent time on the 19.2 kbps downlink.
        assert network.downlink.stats.bytes_carried == received[0].size_bytes

    def test_unroutable_reply_raises(self):
        env = Environment()
        database = build_default_database(20)
        network = Network(env)
        server = DatabaseServer(env, database, network)
        server.start()
        server.inbox.put(
            make_request(
                CachingGranularity.ATTRIBUTE,
                {OID("Root", 1): ("a0",)},
                client_id=42,
            )
        )
        with pytest.raises(NetworkError):
            env.run(until=60.0)


class TestBufferAccounting:
    def test_repeated_access_warms_buffer(self, server):
        oid = OID("Root", 12)
        request = make_request(CachingGranularity.ATTRIBUTE, {oid: ("a0",)})
        __, __, cold = server.serve(request)
        __, __, warm = server.serve(request)
        assert warm < cold
