"""``DatabaseServer.serve`` against the per-item reference server.

Two servers over two identical two-class databases serve the same drawn
request streams: the real one, which reads refresh times from the
estimators' tables, builds and reuses items inline and reads the
prefetch tracker once per class, and :class:`ReferenceServer`, which
does everything per item and per object.  After every request the
replies, trailers, sizes, service times, ``RequestServed`` events,
counters, buffer statistics and the trackers' answers must be equal.
"""

from hypothesis import given, settings, strategies as st

from repro.core.granularity import CachingGranularity
from repro.core.invalidation import INVALIDATION_REPORT, REFRESH_TIME
from repro.net.message import ReplyItem, RequestMessage, UpdateValue
from repro.net.network import Network
from repro.obs.events import RequestServed
from repro.oodb.database import Database
from repro.oodb.objects import DBObject, OID
from repro.oodb.schema import AttributeDef, ClassDef, Schema
from repro.oodb.server import DatabaseServer
from repro.sim.environment import Environment
from tests.oodb.reference_server import ReferenceServer, reference_size

ROOT_NAMES = ("a0", "a1", "a2", "a3", "a4", "r0")
LEAF_NAMES = ("a0", "a1", "b0")
NAMES = {"Root": ROOT_NAMES, "Leaf": LEAF_NAMES}
OBJECTS = {"Root": 6, "Leaf": 3}
CLIENTS = (0, 1)


def build_database() -> Database:
    """Two classes of different shapes; the same values every call."""
    root = ClassDef(
        "Root",
        [AttributeDef(name, size_bytes=8) for name in ROOT_NAMES[:-1]]
        + [
            AttributeDef(
                "r0", size_bytes=8, is_relationship=True, target_class="Root"
            )
        ],
    )
    leaf = ClassDef(
        "Leaf",
        [AttributeDef("a0", 4), AttributeDef("a1", 16), AttributeDef("b0", 8)],
    )
    database = Database(Schema([root, leaf]))
    for class_def in (root, leaf):
        for number in range(OBJECTS[class_def.name]):
            values = {
                name: (number + 1) * (index + 1)
                for index, name in enumerate(class_def.attribute_names)
            }
            database.add(
                DBObject(OID(class_def.name, number), class_def, values)
            )
    return database


@st.composite
def keys(draw):
    class_name = draw(st.sampled_from(sorted(OBJECTS)))
    oid = OID(class_name, draw(st.integers(0, OBJECTS[class_name] - 1)))
    attribute = draw(st.one_of(st.none(), st.sampled_from(NAMES[class_name])))
    return oid, attribute


@st.composite
def requests(draw):
    granularity = draw(st.sampled_from(list(CachingGranularity)))
    needed = {}
    for oid, __ in draw(st.lists(keys(), max_size=4)):
        if granularity.caches_objects:
            needed[oid] = ()
        else:
            # Names may repeat: each listing is a separate access.
            needed[oid] = tuple(
                draw(
                    st.lists(
                        st.sampled_from(NAMES[oid.class_name]),
                        min_size=1,
                        max_size=4,
                    )
                )
            )
    # Existent and held keys are drawn over the same few objects as the
    # needed ones, so the lists overlap each other and ``needed``.
    existent = tuple(draw(st.lists(keys(), max_size=5)))
    held = tuple(draw(st.lists(keys(), max_size=5)))
    updates = {}
    for oid, __ in draw(st.lists(keys(), max_size=2)):
        updates[oid] = tuple(
            UpdateValue(name, draw(st.integers(0, 99)), 8)
            for name in draw(
                st.lists(
                    st.sampled_from(NAMES[oid.class_name]),
                    min_size=1,
                    max_size=3,
                )
            )
        )
    return (
        draw(st.sampled_from(CLIENTS)),
        granularity,
        needed,
        existent,
        held,
        updates,
        draw(st.sampled_from([0.0, 0.0, 5.0, 40.0])),
    )


def assert_same_message(real, reference):
    if reference is None:
        assert real is None
        return
    assert (real.client_id, real.query_id, real.is_trailer) == (
        reference.client_id,
        reference.query_id,
        reference.is_trailer,
    )
    assert len(real.items) == len(reference.items)
    for got, want in zip(real.items, reference.items, strict=True):
        assert type(got) is ReplyItem
        for name in ReplyItem._fields:
            assert getattr(got, name) == getattr(want, name), (name, got, want)
    assert real.size_bytes == reference_size(reference)
    assert real.size_bytes == reference_size(real)


def assert_same_state(real: DatabaseServer, reference: DatabaseServer):
    for counter in (
        "requests_served",
        "items_returned",
        "items_prefetched",
        "updates_applied",
    ):
        assert getattr(real, counter) == getattr(reference, counter), counter
    assert real.storage.hits == reference.storage.hits
    assert real.storage.misses == reference.storage.misses
    tracker, reference_tracker = real.prefetch_tracker, reference.prefetch_tracker
    assert tracker.observed_classes() == reference_tracker.observed_classes()
    for client_id in CLIENTS:
        for class_def in real.database.schema.classes.values():
            assert tracker.access_probabilities(
                client_id, class_def.name
            ) == reference_tracker.access_probabilities(
                client_id, class_def.name
            )
            assert tracker.threshold(
                client_id, class_def
            ) == reference_tracker.threshold(client_id, class_def)
            assert tracker.prefetch_set(
                client_id, class_def
            ) == reference_tracker.prefetch_set(client_id, class_def)


@settings(max_examples=100, deadline=None)
@given(
    mode=st.sampled_from([REFRESH_TIME, INVALIDATION_REPORT]),
    beta=st.sampled_from([0.0, 1.5]),
    split_delivery=st.booleans(),
    ir_object_keys=st.booleans(),
    stream=st.lists(requests(), min_size=1, max_size=25),
)
def test_serve_matches_the_reference(
    mode, beta, split_delivery, ir_object_keys, stream
):
    servers = []
    for cls in (DatabaseServer, ReferenceServer):
        env = Environment()
        servers.append(
            cls(
                env,
                build_database(),
                Network(env),
                buffer_capacity=3,
                beta=beta,
                split_delivery=split_delivery,
                objects_per_page=2,
                coherence_mode=mode,
                ir_object_keys=ir_object_keys,
            )
        )
    real, reference = servers
    served: list[list[RequestServed]] = [[], []]
    for server, events in zip(servers, served, strict=True):
        server.network.bus.subscribe(RequestServed, events.append)
    now = 0.0
    for query_id, drawn in enumerate(stream):
        client_id, granularity, needed, existent, held, updates, wait = drawn
        if wait:
            now += wait
            for server in servers:
                server.env.run(until=now)
        replies = [
            server.serve(
                RequestMessage(
                    client_id=client_id,
                    query_id=query_id,
                    granularity=granularity,
                    needed=needed,
                    existent=existent,
                    held=held,
                    updates=updates,
                )
            )
            for server in servers
        ]
        (reply, trailer, service), (ref_reply, ref_trailer, ref_service) = (
            replies
        )
        assert_same_message(reply, ref_reply)
        assert_same_message(trailer, ref_trailer)
        assert service == ref_service
        assert served[0] == served[1]
        assert_same_state(real, reference)
