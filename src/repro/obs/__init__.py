"""Observability spine: typed event bus, event taxonomy, and sinks.

This is a leaf package — it imports nothing from the domain layers, so
every layer (kernel, network, cache, client, server) can emit through
it without cycles.  See DESIGN.md §9 for the taxonomy and the
zero-overhead-when-off contract.
"""

from repro.obs.bus import EventBus, Handler
from repro.obs.events import (
    ALL_EVENT_TYPES,
    KIND_ABORT,
    KIND_BURST_ENTER,
    KIND_BURST_EXIT,
    KIND_DROP,
    OUTCOME_ABORTED,
    OUTCOME_DELIVERED,
    OUTCOME_DROPPED,
    CacheAccess,
    CacheAdmit,
    CacheEvict,
    FaultEvent,
    LateReply,
    QueryComplete,
    QueryDegraded,
    RefreshExpired,
    RemoteRound,
    ReplyReceived,
    ReplyTimeout,
    RequestSent,
    RequestServed,
    ResourceWait,
    SimEvent,
    TransmitOutcome,
)
from repro.obs.profiler import WallClockProfiler, bucket_for
from repro.obs.sinks import (
    StalenessBucket,
    StalenessTimeline,
    TraceSink,
    encode_event,
    read_trace,
    summarize_trace,
)

__all__ = [
    "ALL_EVENT_TYPES",
    "CacheAccess",
    "CacheAdmit",
    "CacheEvict",
    "EventBus",
    "FaultEvent",
    "Handler",
    "KIND_ABORT",
    "KIND_BURST_ENTER",
    "KIND_BURST_EXIT",
    "KIND_DROP",
    "LateReply",
    "OUTCOME_ABORTED",
    "OUTCOME_DELIVERED",
    "OUTCOME_DROPPED",
    "QueryComplete",
    "QueryDegraded",
    "RefreshExpired",
    "RemoteRound",
    "ReplyReceived",
    "ReplyTimeout",
    "RequestSent",
    "RequestServed",
    "ResourceWait",
    "SimEvent",
    "StalenessBucket",
    "StalenessTimeline",
    "TraceSink",
    "TransmitOutcome",
    "WallClockProfiler",
    "bucket_for",
    "encode_event",
    "read_trace",
    "summarize_trace",
]
