"""The point-to-point wireless network: uplink + downlink + connectivity.

When a :class:`~repro.net.faults.FaultConfig` is supplied (and enabled),
each channel gets its own :class:`~repro.net.faults.FaultInjector`
seeded from a dedicated random stream, and :meth:`Network.abort_deadline`
exposes the instant at which an in-flight transmission to or from a
client must be cut by the disconnection schedule.  With faults off the
network behaves bit-identically to the fault-free original.
"""

from __future__ import annotations

from repro.errors import NetworkError
from repro.net.channel import WIRELESS_BANDWIDTH_BPS, WirelessChannel
from repro.net.disconnect import DisconnectionSchedule
from repro.net.faults import FaultConfig, FaultInjector
from repro.obs.bus import EventBus
from repro.sim.environment import Environment
from repro.sim.rand import RandomStream


class Network:
    """Two shared channels and the disconnection schedule.

    The paper dedicates one channel to upstream queries and one to
    downstream results, both shared by every client.
    """

    def __init__(
        self,
        env: Environment,
        bandwidth_bps: float = WIRELESS_BANDWIDTH_BPS,
        schedule: DisconnectionSchedule | None = None,
        faults: FaultConfig | None = None,
        fault_rng: RandomStream | None = None,
        bus: EventBus | None = None,
    ) -> None:
        self.env = env
        self.bus = bus if bus is not None else EventBus()
        self.faults = faults if faults is not None and faults.enabled else None
        if self.faults is not None and fault_rng is None:
            raise NetworkError(
                "fault injection needs a dedicated RandomStream"
            )
        self.uplink = WirelessChannel(
            env,
            bandwidth_bps,
            name="uplink",
            injector=self._injector(fault_rng, "uplink"),
            bus=self.bus,
        )
        self.downlink = WirelessChannel(
            env,
            bandwidth_bps,
            name="downlink",
            injector=self._injector(fault_rng, "downlink"),
            bus=self.bus,
        )
        #: Broadcast channel used by the invalidation-report coherence
        #: baseline; idle under the paper's refresh-time scheme.
        self.broadcast = WirelessChannel(
            env,
            bandwidth_bps,
            name="broadcast",
            injector=self._injector(fault_rng, "broadcast"),
            bus=self.bus,
        )
        self.schedule = schedule or DisconnectionSchedule()

    def _injector(
        self, fault_rng: RandomStream | None, channel: str
    ) -> FaultInjector | None:
        if self.faults is None:
            return None
        assert fault_rng is not None
        return FaultInjector(
            self.faults,
            fault_rng.fork(channel),
            channel=channel,
            bus=self.bus,
        )

    def __repr__(self) -> str:
        return (
            f"<Network up={self.uplink.bandwidth_bps:g}bps "
            f"down={self.downlink.bandwidth_bps:g}bps "
            f"faults={'on' if self.faults_enabled else 'off'}>"
        )

    @property
    def faults_enabled(self) -> bool:
        return self.faults is not None

    def is_connected(self, client_id: int, now: float | None = None) -> bool:
        """Whether ``client_id`` can reach the server right now."""
        at = self.env.now if now is None else now
        return self.schedule.is_connected(client_id, at)

    def abort_deadline(self, client_id: int) -> float | None:
        """When an in-flight transmission for ``client_id`` must be cut.

        ``None`` with faults off (the fault layer is a strict no-op) or
        when the client has no upcoming disconnection window.  A client
        already inside a window gets the current instant: its message
        aborts before spending any airtime.
        """
        if not self.faults_enabled:
            return None
        now = self.env.now
        if not self.schedule.is_connected(client_id, now):
            return now
        return self.schedule.next_window_start(client_id, now)

    # ------------------------------------------------------------------
    # Byte accounting
    # ------------------------------------------------------------------
    @property
    def bytes_upstream(self) -> float:
        return self.uplink.stats.bytes_carried

    @property
    def bytes_downstream(self) -> float:
        return self.downlink.stats.bytes_carried

    @property
    def raw_bytes(self) -> float:
        """All airtime spent, in bytes: completed plus aborted partials."""
        return sum(
            channel.stats.bytes_carried + channel.stats.bytes_aborted
            for channel in self.channels()
        )

    @property
    def goodput_bytes(self) -> float:
        """Bytes of messages that actually reached their receiver."""
        return sum(
            channel.stats.bytes_delivered for channel in self.channels()
        )

    # ------------------------------------------------------------------
    # Fault accounting
    # ------------------------------------------------------------------
    def channels(self) -> tuple[WirelessChannel, ...]:
        return (self.uplink, self.downlink, self.broadcast)

    @property
    def messages_dropped(self) -> int:
        return sum(
            channel.stats.messages_dropped for channel in self.channels()
        )

    @property
    def messages_aborted(self) -> int:
        return sum(
            channel.stats.messages_aborted for channel in self.channels()
        )
