"""The event taxonomy's structural contract.

Every bus event, :class:`ReplyItem` and :class:`UpdateValue` is a
``typing.NamedTuple``.  Before that they were frozen dataclasses; the
twins below keep those declarations so the move provably kept every
field name, field order, type and default — the JSONL trace is built
from them, so they fix its bytes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing as t

import pytest

import repro.obs.events as events
from repro.net.message import ReplyItem, UpdateValue
from repro.obs.events import ALL_EVENT_TYPES, KeyLike
from repro.obs.sinks import encode_event, jsonify
from repro.oodb.objects import OID


def _named_tuple_classes(module):
    return {
        value
        for value in vars(module).values()
        if isinstance(value, type)
        and issubclass(value, tuple)
        and hasattr(value, "_fields")
        and value.__module__ == module.__name__
    }


def test_every_event_class_is_a_named_tuple():
    assert _named_tuple_classes(events) == set(ALL_EVENT_TYPES)
    assert len(ALL_EVENT_TYPES) == 18
    for cls in (*ALL_EVENT_TYPES, ReplyItem, UpdateValue):
        assert not dataclasses.is_dataclass(cls), cls.__qualname__
    for cls in ALL_EVENT_TYPES:
        assert cls._fields[0] == "time", cls.__qualname__


def _sample(hint):
    """A value of the declared type ``hint``."""
    if hint is t.Any:
        return (OID("Root", 3), "a0")
    if hint is OID:
        return OID("Root", 3)
    members = [m for m in t.get_args(hint) or (hint,) if m is not type(None)]
    return {float: 2.5, int: 3, bool: True, str: "s"}[members[0]]


def _instance(cls):
    hints = t.get_type_hints(cls)
    return cls(*(_sample(hints[name]) for name in cls._fields))


@pytest.mark.parametrize(
    "cls",
    [*ALL_EVENT_TYPES, ReplyItem, UpdateValue],
    ids=lambda cls: cls.__name__,
)
def test_fields_are_read_only(cls):
    # Sinks receive the same instance in subscription order; a mutable
    # event would let an earlier sink change what a later one records.
    instance = _instance(cls)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(instance, name, getattr(instance, name))
    with pytest.raises(AttributeError):
        instance.not_a_field = 1


# ----------------------------------------------------------------------
# The frozen-dataclass declarations the named tuples replaced.
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True, slots=True)
class SimEvent:
    time: float


@dataclasses.dataclass(frozen=True, slots=True)
class CacheAccess(SimEvent):
    client_id: int
    key: KeyLike
    hit: bool
    error: bool
    answered: bool
    connected: bool
    stale_served: bool = False
    age_seconds: float | None = None


@dataclasses.dataclass(frozen=True, slots=True)
class CacheAdmit(SimEvent):
    client_id: int
    cache: str
    key: KeyLike
    size_bytes: int
    evictions: int
    expires_at: float = math.inf
    capacity_bytes: int = 0


@dataclasses.dataclass(frozen=True, slots=True)
class CacheRefresh(SimEvent):
    client_id: int
    cache: str
    key: KeyLike
    expires_at: float


@dataclasses.dataclass(frozen=True, slots=True)
class CacheInvalidate(SimEvent):
    client_id: int
    cache: str
    key: KeyLike
    size_bytes: int


@dataclasses.dataclass(frozen=True, slots=True)
class CacheEvict(SimEvent):
    client_id: int
    cache: str
    key: KeyLike
    size_bytes: int
    score: float | None = None


@dataclasses.dataclass(frozen=True, slots=True)
class CacheReject(SimEvent):
    client_id: int
    cache: str
    key: KeyLike
    size_bytes: int


@dataclasses.dataclass(frozen=True, slots=True)
class RefreshExpired(SimEvent):
    client_id: int
    key: KeyLike
    age_seconds: float
    expired_for_seconds: float


@dataclasses.dataclass(frozen=True, slots=True)
class RemoteRound(SimEvent):
    client_id: int
    query_id: int
    attempt: int


@dataclasses.dataclass(frozen=True, slots=True)
class RequestSent(SimEvent):
    client_id: int
    query_id: int
    attempt: int
    size_bytes: int


@dataclasses.dataclass(frozen=True, slots=True)
class ReplyTimeout(SimEvent):
    client_id: int
    query_id: int
    attempt: int


@dataclasses.dataclass(frozen=True, slots=True)
class LateReply(SimEvent):
    client_id: int
    query_id: int
    size_bytes: int


@dataclasses.dataclass(frozen=True, slots=True)
class ReplyReceived(SimEvent):
    client_id: int
    query_id: int
    size_bytes: int
    is_trailer: bool = False


@dataclasses.dataclass(frozen=True, slots=True)
class QueryComplete(SimEvent):
    client_id: int
    query_id: int
    response_seconds: float
    connected: bool


@dataclasses.dataclass(frozen=True, slots=True)
class QueryDegraded(SimEvent):
    client_id: int
    query_id: int
    lost_updates: int


@dataclasses.dataclass(frozen=True, slots=True)
class TransmitOutcome(SimEvent):
    channel: str
    outcome: str
    size_bytes: float
    bytes_on_air: float
    airtime_seconds: float


@dataclasses.dataclass(frozen=True, slots=True)
class FaultEvent(SimEvent):
    channel: str
    kind: str
    size_bytes: float


@dataclasses.dataclass(frozen=True, slots=True)
class RequestServed(SimEvent):
    client_id: int
    query_id: int
    items: int
    prefetched: int
    updates: int
    service_seconds: float


@dataclasses.dataclass(frozen=True, slots=True)
class ResourceWait(SimEvent):
    resource: str
    wait_seconds: float
    hold_seconds: float


@dataclasses.dataclass(frozen=True)
class DataclassUpdateValue:
    attribute: str
    value: int
    size_bytes: int


@dataclasses.dataclass(frozen=True, slots=True)
class DataclassReplyItem:
    oid: OID
    attribute: str | None
    value: t.Any
    version: int
    refresh_time: float
    payload_bytes: int


TWINS = {
    **{cls: globals()[cls.__name__] for cls in ALL_EVENT_TYPES},
    ReplyItem: DataclassReplyItem,
    UpdateValue: DataclassUpdateValue,
}


@pytest.mark.parametrize(
    "cls", list(TWINS), ids=lambda cls: cls.__name__
)
def test_named_tuple_matches_its_dataclass_twin(cls):
    twin = TWINS[cls]
    fields = dataclasses.fields(twin)
    assert cls._fields == tuple(field.name for field in fields)
    assert cls._field_defaults == {
        field.name: field.default
        for field in fields
        if field.default is not dataclasses.MISSING
    }
    assert t.get_type_hints(cls) == t.get_type_hints(twin)
    new = _instance(cls)
    old = twin(*new)
    assert repr(new).split("(", 1)[1] == repr(old).split("(", 1)[1]


@pytest.mark.parametrize(
    "cls", ALL_EVENT_TYPES, ids=lambda cls: cls.__name__
)
def test_trace_line_matches_the_dataclass_encoding(cls):
    event = _instance(cls)
    old = TWINS[cls](*event)
    record = {"type": cls.__name__}
    for field in dataclasses.fields(old):
        record[field.name] = jsonify(getattr(old, field.name))
    assert json.dumps(encode_event(event)) == json.dumps(record)
