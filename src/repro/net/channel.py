"""Shared wireless channels.

Two 19.2 Kbps channels are shared by all ten clients: one carries
upstream queries, the other downstream results (Section 4).  A channel
is a single FCFS facility — a message holds it for its transmission time,
and contention (especially downstream under bursty arrivals) produces
the queueing delays the paper discusses in Experiment #3.

A transmission can end three ways (see :meth:`WirelessChannel.transmit`):

* :data:`DELIVERED` — full airtime spent, receiver CRC passed;
* :data:`DROPPED` — full airtime spent but the attached
  :class:`~repro.net.faults.FaultInjector` corrupted it (the receiver's
  CRC check fails, so the message is lost);
* :data:`ABORTED` — cut mid-air by the ``deadline`` argument (the
  destination's disconnection window opened).

Accounting happens *inside* the facility guard at the moment the
outcome is known, so an aborted transmission contributes its partial
airtime to ``bytes_aborted`` instead of silently vanishing, and
fractional byte counts accumulate exactly instead of being truncated.
"""

from __future__ import annotations

import typing as t

from repro._units import (
    Bps,
    Bytes,
    KBPS,
    Ratio,
    Seconds,
    transmission_time,
)
from repro.errors import NetworkError
from repro.net.faults import FaultInjector
from repro.obs.bus import EventBus
from repro.obs.events import (
    OUTCOME_ABORTED,
    OUTCOME_DELIVERED,
    TransmitOutcome,
)
from repro.sim.environment import Environment
from repro.sim.resources import Resource

#: The paper's wireless bandwidth per channel.
WIRELESS_BANDWIDTH_BPS: Bps = 19.2 * KBPS

#: Transmission outcomes returned by :meth:`WirelessChannel.transmit`
#: (shared with :mod:`repro.obs.events`' TransmitOutcome.outcome).
DELIVERED = "delivered"
DROPPED = "dropped"
ABORTED = "aborted"


class ChannelStats:
    """One channel's byte/message accounting, fed by bus events.

    The channel no longer mutates counters inline: every transmission
    exit emits a :class:`TransmitOutcome` and this subscriber folds it
    into the same tallies the pre-bus code kept (events for other
    channels on the shared bus are filtered out by name).
    """

    def __init__(self, channel: str) -> None:
        self.channel = channel
        #: Bytes whose airtime completed (delivered *or* corrupted).
        self.bytes_carried: Bytes = 0.0
        self.messages_carried = 0
        #: Goodput: bytes of messages that actually reached the receiver.
        self.bytes_delivered: Bytes = 0.0
        self.messages_dropped = 0
        #: Partial airtime of transmissions cut mid-air.
        self.bytes_aborted: Bytes = 0.0
        self.messages_aborted = 0

    def attach(self, bus: EventBus) -> "ChannelStats":
        bus.subscribe(TransmitOutcome, self.on_outcome)
        return self

    def on_outcome(self, event: TransmitOutcome) -> None:
        if event.channel != self.channel:
            return
        if event.outcome == OUTCOME_ABORTED:
            self.messages_aborted += 1
            self.bytes_aborted += event.bytes_on_air
            return
        self.bytes_carried += event.size_bytes
        self.messages_carried += 1
        if event.outcome == OUTCOME_DELIVERED:
            self.bytes_delivered += event.size_bytes
        else:
            self.messages_dropped += 1


class WirelessChannel:
    """A single shared half-duplex wireless channel."""

    def __init__(
        self,
        env: Environment,
        bandwidth_bps: Bps = WIRELESS_BANDWIDTH_BPS,
        name: str = "channel",
        injector: FaultInjector | None = None,
        bus: EventBus | None = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise NetworkError(
                f"bandwidth must be positive, got {bandwidth_bps!r}"
            )
        self.env = env
        self.bandwidth_bps = float(bandwidth_bps)
        self.name = name
        self.injector = injector
        self.bus = bus if bus is not None else EventBus()
        self.stats = ChannelStats(name).attach(self.bus)
        self._facility = Resource(env, name=name, bus=self.bus)

    def __repr__(self) -> str:
        return (
            f"<WirelessChannel {self.name!r} {self.bandwidth_bps:g} bps "
            f"queued={self.queue_length}>"
        )

    # -- accounting views (delegating to the bus-fed stats) -------------
    @property
    def bytes_carried(self) -> Bytes:
        return self.stats.bytes_carried

    @property
    def messages_carried(self) -> int:
        return self.stats.messages_carried

    @property
    def bytes_delivered(self) -> Bytes:
        return self.stats.bytes_delivered

    @property
    def messages_dropped(self) -> int:
        return self.stats.messages_dropped

    @property
    def bytes_aborted(self) -> Bytes:
        return self.stats.bytes_aborted

    @property
    def messages_aborted(self) -> int:
        return self.stats.messages_aborted

    @property
    def queue_length(self) -> int:
        """Messages currently waiting behind the one in flight."""
        return self._facility.queue_length

    def transmission_time(self, size_bytes: Bytes) -> Seconds:
        """Airtime for a message of ``size_bytes``."""
        return transmission_time(size_bytes, self.bandwidth_bps)

    def transmit(
        self, size_bytes: Bytes, deadline: Seconds | None = None
    ) -> t.Generator[t.Any, t.Any, str]:
        """Occupy the channel for one message (``yield from`` this).

        FCFS: callers queue behind whatever is already in flight.
        Returns the transmission outcome — :data:`DELIVERED`,
        :data:`DROPPED` (fault injector corrupted it) or
        :data:`ABORTED` (cut at ``deadline``).
        """
        if size_bytes < 0:
            raise NetworkError(f"negative message size: {size_bytes!r}")
        with self._facility.request() as grant:
            yield grant
            airtime = self.transmission_time(size_bytes)
            started = self.env.now
            if deadline is not None and started + airtime > deadline:
                # The link is scheduled to cut before this message could
                # finish: spend the partial airtime, then abort.
                remaining = deadline - started
                if remaining > 0:
                    yield self.env.timeout(remaining)
                self._account_abort(size_bytes, airtime, started)
                return ABORTED
            yield self.env.timeout(airtime)
            dropped = self.injector is not None and self.injector.should_drop(
                self.env.now, size_bytes
            )
            self.bus.emit(
                TransmitOutcome(
                    time=self.env.now,
                    channel=self.name,
                    outcome=DROPPED if dropped else DELIVERED,
                    size_bytes=size_bytes,
                    bytes_on_air=size_bytes,
                    airtime_seconds=airtime,
                )
            )
            if dropped:
                return DROPPED
        return DELIVERED

    def _account_abort(
        self, size_bytes: Bytes, airtime: Seconds, started: Seconds
    ) -> None:
        elapsed = self.env.now - started
        bytes_on_air = (
            size_bytes * (elapsed / airtime) if airtime > 0 else 0.0
        )
        self.bus.emit(
            TransmitOutcome(
                time=self.env.now,
                channel=self.name,
                outcome=ABORTED,
                size_bytes=size_bytes,
                bytes_on_air=bytes_on_air,
                airtime_seconds=elapsed,
            )
        )
        if self.injector is not None:
            self.injector.note_abort(self.env.now, size_bytes)

    def utilization(self) -> Ratio:
        """Fraction of elapsed time the channel has been busy."""
        return self._facility.utilization()
