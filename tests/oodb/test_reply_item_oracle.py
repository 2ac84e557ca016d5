"""The server's reply-item reuse against an unmemoized reference.

``DatabaseServer.serve`` hands back the last item built for an
(object, attribute) pair while that item is still exact.
:func:`reference_attribute_item` builds every item from scratch, the
way the server did before it reused any, with the refresh time
computed from the key's write-gap tally rather than read from the
estimator's table; the property test drives
random interleavings of reads, updates through ``serve`` and direct
writes to the objects and estimators, and requires every shipped item
to equal the reference field by field.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.granularity import CachingGranularity
from repro.core.invalidation import INVALIDATION_REPORT, REFRESH_TIME
from repro.net.message import ReplyItem, RequestMessage, UpdateValue
from repro.net.network import Network
from repro.oodb.database import build_default_database
from repro.oodb.objects import DBObject, OID
from repro.oodb.server import DatabaseServer
from repro.sim.environment import Environment
from tests.oodb.reference_server import tally_refresh_time

OBJECTS = 6
ATTRIBUTES = ("a0", "a1", "a2", "r0")


def reference_attribute_item(
    server: DatabaseServer, obj: DBObject, attribute: str
) -> ReplyItem:
    """A fresh item for ``attribute`` of ``obj``, nothing reused."""
    if server.coherence_mode == INVALIDATION_REPORT:
        refresh_time = math.inf
    else:
        refresh_time = tally_refresh_time(
            server.attribute_estimator, (obj.oid, attribute)
        )
    return ReplyItem(
        oid=obj.oid,
        attribute=attribute,
        value=obj.read(attribute),
        version=obj.version_of(attribute),
        refresh_time=refresh_time,
        payload_bytes=obj.class_def.attribute(attribute).size_bytes,
    )


def assert_exact(server, items):
    for item in items:
        obj = server.database.get(item.oid)
        expected = reference_attribute_item(server, obj, item.attribute)
        for name in ReplyItem._fields:
            assert getattr(item, name) == getattr(expected, name), (
                name,
                item,
                expected,
            )


def request(granularity, needed=None, updates=None, client_id=0):
    return RequestMessage(
        client_id=client_id,
        query_id=1,
        granularity=granularity,
        needed=needed or {},
        updates=updates or {},
    )


oid_numbers = st.integers(0, OBJECTS - 1)
attributes = st.sampled_from(ATTRIBUTES)
operations = st.one_of(
    st.tuples(
        st.just("read"),
        st.integers(0, 1),
        st.sampled_from(
            [CachingGranularity.ATTRIBUTE, CachingGranularity.HYBRID]
        ),
        oid_numbers,
        st.lists(attributes, min_size=1, max_size=3, unique=True),
    ),
    st.tuples(
        st.just("update"), st.integers(0, 1), oid_numbers, attributes,
        st.integers(0, OBJECTS - 2),
    ),
    st.tuples(
        st.just("write"), oid_numbers, attributes, st.integers(0, OBJECTS - 2)
    ),
    st.tuples(st.just("record"), st.integers(0, 1), oid_numbers, attributes),
    st.tuples(st.just("advance"), st.floats(0.5, 50.0)),
)


@settings(max_examples=60, deadline=None)
@given(
    betas=st.sampled_from([(0.0, 1.5), (1.5, 0.0), (0.0, 0.0)]),
    modes=st.tuples(
        st.sampled_from([REFRESH_TIME, INVALIDATION_REPORT]),
        st.sampled_from([REFRESH_TIME, INVALIDATION_REPORT]),
    ),
    ops=st.lists(operations, min_size=1, max_size=40),
)
def test_reused_items_equal_the_reference(betas, modes, ops):
    env = Environment()
    database = build_default_database(OBJECTS)
    network = Network(env)
    # Two servers over one database: each attribute state holds one
    # memo, which the servers overwrite in turn.
    servers = [
        DatabaseServer(
            env, database, network, beta=beta, coherence_mode=mode,
            name=f"server-{index}",
        )
        for index, (beta, mode) in enumerate(zip(betas, modes, strict=True))
    ]
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "read":
            __, which, granularity, number, attrs = op
            server = servers[which]
            reply, trailer, __ = server.serve(
                request(granularity, needed={OID("Root", number): tuple(attrs)})
            )
            assert_exact(server, reply.items)
            if trailer is not None:
                assert_exact(server, trailer.items)
        elif kind == "update":
            __, which, number, attribute, value = op
            server = servers[which]
            oid = OID("Root", number)
            reply, __, __ = server.serve(
                request(
                    CachingGranularity.ATTRIBUTE,
                    needed={oid: (attribute,)},
                    updates={oid: (UpdateValue(attribute, value, 8),)},
                )
            )
            assert_exact(server, reply.items)
        elif kind == "write":
            __, number, attribute, value = op
            database.get(OID("Root", number)).write(attribute, value, now)
        elif kind == "record":
            __, which, number, attribute = op
            servers[which].attribute_estimator.record_write(
                (OID("Root", number), attribute), now
            )
        else:
            now += op[1]
            env.run(until=now)


@pytest.fixture()
def server():
    env = Environment()
    return DatabaseServer(env, build_default_database(4), Network(env))


def read(server, attribute="a0", number=1):
    reply, __, __ = server.serve(
        request(
            CachingGranularity.ATTRIBUTE,
            needed={OID("Root", number): (attribute,)},
        )
    )
    (item,) = reply.items
    return item


class TestReuse:
    """The memo is really taken, and really dropped."""

    def test_unchanged_attribute_reuses_its_item(self, server):
        assert read(server) is read(server)

    def test_write_to_the_object_rebuilds(self, server):
        first = read(server)
        server.database.get(OID("Root", 1)).write("a0", 5, 0.0)
        second = read(server)
        assert second is not first
        assert second.version == first.version + 1

    def test_new_refresh_estimate_rebuilds(self, server):
        first = read(server)
        for now in (0.0, 10.0):
            server.attribute_estimator.record_write((OID("Root", 1), "a0"), now)
        second = read(server)
        assert second is not first
        assert second.refresh_time == 10.0

    def test_other_attributes_keep_their_items(self, server):
        kept = read(server, "a1")
        server.database.get(OID("Root", 1)).write("a0", 5, 0.0)
        assert read(server, "a1") is kept

    def test_a_server_with_another_beta_does_not_reuse(self, server):
        other = DatabaseServer(
            server.env, server.database, server.network, beta=1.5,
            name="server-1",
        )
        for index in range(3):
            server.attribute_estimator.record_write(
                (OID("Root", 1), "a0"), 10.0 * index * index
            )
            other.attribute_estimator.record_write(
                (OID("Root", 1), "a0"), 10.0 * index * index
            )
        mine = read(server)
        theirs = read(other)
        assert mine.refresh_time != theirs.refresh_time
        again = read(server)
        assert again == mine
        assert again is not theirs
