"""Wireless network substrate: channels, messages, disconnection."""

from repro.net.channel import (
    ABORTED,
    DELIVERED,
    DROPPED,
    WIRELESS_BANDWIDTH_BPS,
    WirelessChannel,
)
from repro.net.disconnect import DisconnectionSchedule, plan_single_windows
from repro.net.faults import (
    FaultConfig,
    FaultEvent,
    FaultInjector,
    RecoveryPolicy,
)
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
from repro.net.network import Network

__all__ = [
    "ABORTED",
    "ATTR_ID_BYTES",
    "DELIVERED",
    "DROPPED",
    "DisconnectionSchedule",
    "FaultConfig",
    "FaultEvent",
    "FaultInjector",
    "HEADER_BYTES",
    "Network",
    "RecoveryPolicy",
    "OID_BYTES",
    "QUERY_DESCRIPTOR_BYTES",
    "REFRESH_TIME_BYTES",
    "ReplyItem",
    "ReplyMessage",
    "RequestMessage",
    "UpdateValue",
    "WIRELESS_BANDWIDTH_BPS",
    "WirelessChannel",
    "plan_single_windows",
]
