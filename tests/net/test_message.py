"""Unit tests for wire-message size accounting."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.granularity import CachingGranularity
from repro.net.message import (
    ATTR_ID_BYTES,
    HEADER_BYTES,
    OID_BYTES,
    QUERY_DESCRIPTOR_BYTES,
    REFRESH_TIME_BYTES,
    ReplyItem,
    ReplyMessage,
    RequestMessage,
    UpdateValue,
)
from repro.oodb.objects import OID


def oid(n):
    return OID("Root", n)


class TestRequestSize:
    def test_minimal_request(self):
        request = RequestMessage(
            client_id=0,
            query_id=1,
            granularity=CachingGranularity.ATTRIBUTE,
            needed={oid(1): ("a0",)},
        )
        assert request.size_bytes == (
            HEADER_BYTES + QUERY_DESCRIPTOR_BYTES + OID_BYTES + ATTR_ID_BYTES
        )

    def test_object_request_has_no_attribute_ids(self):
        request = RequestMessage(
            client_id=0,
            query_id=1,
            granularity=CachingGranularity.OBJECT,
            needed={oid(1): (), oid(2): ()},
        )
        assert request.size_bytes == (
            HEADER_BYTES + QUERY_DESCRIPTOR_BYTES + 2 * OID_BYTES
        )

    def test_existent_entries_grouped_by_oid(self):
        base = RequestMessage(
            client_id=0,
            query_id=1,
            granularity=CachingGranularity.ATTRIBUTE,
            needed={oid(1): ("a0",)},
        )
        with_existent = RequestMessage(
            client_id=0,
            query_id=1,
            granularity=CachingGranularity.ATTRIBUTE,
            needed={oid(1): ("a0",)},
            existent=((oid(1), "a1"), (oid(1), "a2")),
        )
        # Same OID already on the wire: only two attribute ids added.
        assert (
            with_existent.size_bytes
            == base.size_bytes + 2 * ATTR_ID_BYTES
        )

    def test_existent_entry_for_new_oid_pays_oid(self):
        request = RequestMessage(
            client_id=0,
            query_id=1,
            granularity=CachingGranularity.ATTRIBUTE,
            needed={oid(1): ("a0",)},
            existent=((oid(2), "a1"),),
        )
        expected = (
            HEADER_BYTES
            + QUERY_DESCRIPTOR_BYTES
            + OID_BYTES + ATTR_ID_BYTES  # needed
            + OID_BYTES + ATTR_ID_BYTES  # existent on a fresh oid
        )
        assert request.size_bytes == expected

    def test_object_granularity_existent_has_no_attr_id(self):
        request = RequestMessage(
            client_id=0,
            query_id=1,
            granularity=CachingGranularity.OBJECT,
            needed={oid(1): ()},
            existent=((oid(2), None),),
        )
        assert request.size_bytes == (
            HEADER_BYTES + QUERY_DESCRIPTOR_BYTES + 2 * OID_BYTES
        )

    def test_update_payload_counted(self):
        request = RequestMessage(
            client_id=0,
            query_id=1,
            granularity=CachingGranularity.ATTRIBUTE,
            needed={oid(1): ("a0",)},
            updates={oid(1): (UpdateValue("a0", 7, 80),)},
        )
        expected = (
            HEADER_BYTES
            + QUERY_DESCRIPTOR_BYTES
            + OID_BYTES + ATTR_ID_BYTES
            + ATTR_ID_BYTES + 80  # update rides the same oid
        )
        assert request.size_bytes == expected

    def test_pure_update_detected(self):
        request = RequestMessage(
            client_id=0,
            query_id=1,
            granularity=CachingGranularity.ATTRIBUTE,
            needed={},
            updates={oid(1): (UpdateValue("a0", 7, 80),)},
        )
        assert request.is_pure_update


class TestReplySize:
    def test_attribute_items(self):
        items = (
            ReplyItem(oid(1), "a0", 5, 0, 100.0, 80),
            ReplyItem(oid(1), "a1", 6, 0, 100.0, 80),
        )
        reply = ReplyMessage(client_id=0, query_id=1, items=items)
        expected = HEADER_BYTES + OID_BYTES + 2 * (
            ATTR_ID_BYTES + 80 + REFRESH_TIME_BYTES
        )
        assert reply.size_bytes == expected

    def test_object_item(self):
        item = ReplyItem(oid(1), None, {"a0": 5}, 0, math.inf, 960)
        reply = ReplyMessage(client_id=0, query_id=1, items=(item,))
        assert reply.size_bytes == (
            HEADER_BYTES + OID_BYTES + 960 + REFRESH_TIME_BYTES
        )

    def test_distinct_oids_counted_once(self):
        items = tuple(
            ReplyItem(oid(n), "a0", 1, 0, 1.0, 80) for n in (1, 1, 2)
        )
        reply = ReplyMessage(client_id=0, query_id=1, items=items)
        assert reply.size_bytes == HEADER_BYTES + 2 * OID_BYTES + 3 * (
            ATTR_ID_BYTES + 80 + REFRESH_TIME_BYTES
        )

    def test_expiry_deadline_finite(self):
        item = ReplyItem(oid(1), "a0", 5, 0, 100.0, 80)
        reply = ReplyMessage(client_id=0, query_id=1, items=(item,))
        assert reply.expiry_deadline(item, now=50.0) == 150.0

    def test_expiry_deadline_infinite(self):
        item = ReplyItem(oid(1), "a0", 5, 0, math.inf, 80)
        reply = ReplyMessage(client_id=0, query_id=1, items=(item,))
        assert math.isinf(reply.expiry_deadline(item, now=50.0))

    def test_trailer_flag_defaults_false(self):
        reply = ReplyMessage(client_id=0, query_id=1, items=())
        assert not reply.is_trailer


class TestSizeIsInsertionOrderIndependent:
    """Regression for the REP003 fixes: wire sizes are sums and counts,
    so dict build order can never reach the accounting."""

    def test_needed_order(self):
        def make(needed):
            return RequestMessage(
                client_id=0,
                query_id=1,
                granularity=CachingGranularity.ATTRIBUTE,
                needed=needed,
            )

        forward = {oid(n): ("a0", "a1") for n in (1, 2, 3)}
        backward = {oid(n): ("a0", "a1") for n in (3, 2, 1)}
        assert make(forward).size_bytes == make(backward).size_bytes

    def test_updates_order(self):
        def make(updates):
            return RequestMessage(
                client_id=0,
                query_id=1,
                granularity=CachingGranularity.ATTRIBUTE,
                needed={},
                updates=updates,
            )

        changes = (UpdateValue("a0", 7, 80),)
        forward = {oid(n): changes for n in (1, 2, 3)}
        backward = {oid(n): changes for n in (3, 2, 1)}
        assert make(forward).size_bytes == make(backward).size_bytes


def reference_request_size(request):
    """The request size as the sorted-loop accounting computed it."""
    size = HEADER_BYTES + QUERY_DESCRIPTOR_BYTES
    oids_on_wire = set()
    for key, attrs in sorted(request.needed.items()):
        oids_on_wire.add(key)
        size += OID_BYTES + len(attrs) * ATTR_ID_BYTES
    for key, attribute in (*request.existent, *request.held):
        if key not in oids_on_wire:
            oids_on_wire.add(key)
            size += OID_BYTES
        if attribute is not None:
            size += ATTR_ID_BYTES
    for key, changes in sorted(request.updates.items()):
        if key not in oids_on_wire:
            oids_on_wire.add(key)
            size += OID_BYTES
        for change in changes:
            size += ATTR_ID_BYTES + change.size_bytes
    return size


def reference_reply_size(reply):
    size = HEADER_BYTES
    seen = set()
    for item in reply.items:
        if item.oid not in seen:
            seen.add(item.oid)
            size += OID_BYTES
        size += item.wire_bytes
    return size


# A handful of OIDs, so the same object turns up in several lists.
oids = st.builds(oid, st.integers(0, 5))
attribute_names = st.sampled_from(["a0", "a1", "a2"])
cache_keys = st.tuples(oids, st.one_of(st.none(), attribute_names))
update_values = st.builds(
    UpdateValue, attribute_names, st.integers(0, 9), st.integers(0, 200)
)
requests = st.builds(
    RequestMessage,
    client_id=st.just(0),
    query_id=st.just(1),
    granularity=st.sampled_from(list(CachingGranularity)),
    needed=st.dictionaries(
        oids, st.lists(attribute_names, max_size=3).map(tuple), max_size=4
    ),
    existent=st.lists(cache_keys, max_size=5).map(tuple),
    held=st.lists(cache_keys, max_size=5).map(tuple),
    updates=st.dictionaries(
        oids, st.lists(update_values, max_size=3).map(tuple), max_size=4
    ),
)
reply_items = st.builds(
    ReplyItem,
    oids,
    st.one_of(st.none(), attribute_names),
    st.integers(0, 9),
    st.integers(0, 9),
    st.floats(0.0, 100.0),
    st.integers(0, 1000),
)


class TestSizeMatchesTheSortedLoop:
    @settings(max_examples=200, deadline=None)
    @given(requests)
    def test_request(self, request):
        assert request.size_bytes == reference_request_size(request)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(reply_items, max_size=8).map(tuple), st.booleans())
    def test_reply(self, items, is_trailer):
        reply = ReplyMessage(
            client_id=0, query_id=1, items=items, is_trailer=is_trailer
        )
        assert reply.size_bytes == reference_reply_size(reply)

    def test_empty_messages(self):
        request = RequestMessage(
            client_id=0,
            query_id=1,
            granularity=CachingGranularity.ATTRIBUTE,
            needed={},
        )
        reply = ReplyMessage(client_id=0, query_id=1, items=())
        assert request.size_bytes == HEADER_BYTES + QUERY_DESCRIPTOR_BYTES
        assert reply.size_bytes == HEADER_BYTES


@pytest.mark.parametrize("cls", [RequestMessage, ReplyMessage])
def test_size_bytes_stays_a_property(cls):
    # bench/spans.py times message sizing by wrapping the class's
    # ``size_bytes`` property; a field or a cached_property would slip
    # past it (or break it).
    assert isinstance(vars(cls)["size_bytes"], property)
