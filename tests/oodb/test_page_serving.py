"""Unit tests for the PC (page caching) baseline's server behaviour."""

import pytest

from repro.core.granularity import CachingGranularity
from repro.errors import NetworkError
from repro.net.message import RequestMessage
from repro.net.network import Network
from repro.oodb.database import build_default_database
from repro.oodb.objects import OID
from repro.oodb.server import DatabaseServer
from repro.sim.environment import Environment


@pytest.fixture()
def server():
    env = Environment()
    database = build_default_database(20)
    network = Network(env)
    return DatabaseServer(
        env, database, network, buffer_capacity=10, objects_per_page=4
    )


def page_request(needed, existent=(), held=()):
    return RequestMessage(
        client_id=0,
        query_id=1,
        granularity=CachingGranularity.PAGE,
        needed=needed,
        existent=tuple(existent),
        held=tuple(held),
    )


class TestPageServing:
    def test_whole_page_returned(self, server):
        # Object 5 lives in page 1 = objects 4..7.
        reply, trailer, __ = server.serve(page_request({OID("Root", 5): ()}))
        assert trailer is None
        returned = sorted(item.oid.number for item in reply.items)
        assert returned == [4, 5, 6, 7]
        assert all(item.attribute is None for item in reply.items)

    def test_page_members_clip_at_database_end(self, server):
        # 20 objects, pages of 4: object 18 -> page 4 = objects 16..19.
        reply, __, __ = server.serve(page_request({OID("Root", 18): ()}))
        returned = sorted(item.oid.number for item in reply.items)
        assert returned == [16, 17, 18, 19]

    def test_two_objects_same_page_sent_once(self, server):
        reply, __, __ = server.serve(
            page_request({OID("Root", 4): (), OID("Root", 6): ()})
        )
        returned = sorted(item.oid.number for item in reply.items)
        assert returned == [4, 5, 6, 7]

    def test_held_page_mates_skipped(self, server):
        reply, __, __ = server.serve(
            page_request(
                {OID("Root", 5): ()},
                held=[(OID("Root", 4), None), (OID("Root", 7), None)],
            )
        )
        returned = sorted(item.oid.number for item in reply.items)
        assert returned == [5, 6]

    def test_requested_object_sent_even_if_listed_held(self, server):
        # A needed object is being refreshed; held must not mask it.
        reply, __, __ = server.serve(
            page_request(
                {OID("Root", 5): ()}, held=[(OID("Root", 5), None)]
            )
        )
        assert 5 in [item.oid.number for item in reply.items]

    def test_page_reply_is_bigger_than_object_reply(self, server):
        page_reply, __, __ = server.serve(
            page_request({OID("Root", 5): ()})
        )
        object_reply, __, __ = server.serve(
            RequestMessage(
                client_id=0,
                query_id=2,
                granularity=CachingGranularity.OBJECT,
                needed={OID("Root", 5): ()},
            )
        )
        assert page_reply.size_bytes > 3 * object_reply.size_bytes

    def test_page_size_validation(self):
        env = Environment()
        database = build_default_database(10)
        with pytest.raises(NetworkError):
            DatabaseServer(
                env, database, Network(env), objects_per_page=0
            )


class TestTrailerDropHeuristic:
    def test_trailer_dropped_when_queue_backs_up(self):
        env = Environment()
        database = build_default_database(30)
        network = Network(env)
        server = DatabaseServer(
            env,
            database,
            network,
            trailer_drop_queue_threshold=1,
        )
        received = []
        server.register_client(0, received.append)
        server.start()
        # Teach the prefetcher so HC requests produce trailers.
        for attribute, count in (("a0", 55), ("a1", 35), ("a2", 10)):
            for __ in range(count):
                server.prefetch_tracker.record_access(0, "Root", (attribute,))
        # Three HC requests in a burst: their replies + trailers queue on
        # the downlink, pushing its queue past the threshold.
        for query_id, number in enumerate((1, 2, 3)):
            server.inbox.put(
                RequestMessage(
                    client_id=0,
                    query_id=query_id,
                    granularity=CachingGranularity.HYBRID,
                    needed={OID("Root", number): ("a0",)},
                )
            )
        env.run(until=60.0)
        assert server.trailers_dropped > 0
        trailers = [r for r in received if r.is_trailer]
        primaries = [r for r in received if not r.is_trailer]
        assert len(primaries) == 3
        assert len(trailers) < 3
