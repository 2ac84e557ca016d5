"""Build and run one simulation from a :class:`SimulationConfig`."""

from __future__ import annotations

import contextlib
import dataclasses
import gc

from repro.analysis.invariants import (
    InvariantEngine,
    InvariantReport,
    RunContext,
)
from repro.client.mobile_client import MobileClient
from repro.core.granularity import CachingGranularity
from repro.core.prefetch import AttributeAccessTracker
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import SimulationConfig
from repro.metrics.collectors import MetricsSummary
from repro.net.disconnect import DisconnectionSchedule, plan_single_windows
from repro.net.faults import FaultConfig, RecoveryPolicy
from repro.net.network import Network
from repro.obs.bus import EventBus
from repro.obs.profiler import WallClockProfiler
from repro.obs.sinks import StalenessBucket, StalenessTimeline, TraceSink
from repro.oodb.database import Database, build_default_database
from repro.oodb.query import QueryKind
from repro.oodb.server import DatabaseServer
from repro.sim.environment import Environment
from repro.sim.rand import RandomStream
from repro.workload.arrivals import (
    ArrivalProcess,
    BurstyArrival,
    PoissonArrival,
)
from repro.workload.heat import (
    ChangingSkewedHeat,
    CyclicHeat,
    HeatDistribution,
    SequentialScanHeat,
    ShiftingHotspotHeat,
    SkewedHeat,
    UniformHeat,
    ZipfHeat,
)
from repro.workload.queries import QueryWorkload


@dataclasses.dataclass
class SimulationResult:
    """Everything a finished run exposes for analysis."""

    config: SimulationConfig
    summary: MetricsSummary
    uplink_utilization: float
    downlink_utilization: float
    server_buffer_hit_ratio: float
    items_prefetched: int
    requests_served: int
    #: Kernel events processed over the whole run (deterministic for a
    #: given config; the numerator of the events/sec benchmarks).
    events_processed: int = 0
    # -- fault-injection / recovery accounting (Experiment #7) ----------
    messages_dropped: int = 0
    messages_aborted: int = 0
    #: All airtime spent, in bytes (completed plus aborted partials).
    raw_bytes: float = 0.0
    #: Bytes of messages that actually reached their receiver.
    goodput_bytes: float = 0.0
    # -- observability ---------------------------------------------------
    #: Events emitted on the run's bus, per type name (deterministic for
    #: a given config and sink set).
    event_counts: dict[str, int] = dataclasses.field(default_factory=dict)
    #: Per-subsystem wall-clock breakdown when profiling was on (not a
    #: simulation output; excluded from result-equivalence comparisons).
    profile: "dict[str, dict[str, float]] | None" = dataclasses.field(
        default=None, compare=False
    )
    #: Bucketed age-at-read series when the staleness timeline was on.
    staleness: list[StalenessBucket] = dataclasses.field(
        default_factory=list
    )
    #: JSONL trace lines written when tracing was on.
    trace_events: int = 0
    #: Protocol-invariant report when ``--invariants`` was on (not a
    #: simulation output; excluded from result-equivalence comparisons).
    invariants: "InvariantReport | None" = dataclasses.field(
        default=None, compare=False
    )

    @property
    def hit_ratio(self) -> float:
        return self.summary.hit_ratio

    @property
    def response_time(self) -> float:
        return self.summary.response_time

    @property
    def error_rate(self) -> float:
        return self.summary.error_rate

    @property
    def disconnected_error_rate(self) -> float:
        return self.summary.disconnected_error_rate

    @property
    def retries(self) -> int:
        return self.summary.total_retries

    @property
    def timeouts(self) -> int:
        return self.summary.total_timeouts

    @property
    def degraded_queries(self) -> int:
        return self.summary.total_degraded_queries


class Simulation:
    """A fully wired simulation, ready to run."""

    def __init__(self, config: SimulationConfig) -> None:
        config.validate()
        self.config = config
        self._ran = False
        self.env = Environment()
        #: One bus per run: every layer publishes here, every sink
        #: subscribes here.
        self.bus = EventBus()
        self.trace_sink: TraceSink | None = None
        if config.trace_path is not None:
            self.trace_sink = TraceSink(config.trace_path).attach(self.bus)
        self.staleness_sink: StalenessTimeline | None = None
        if config.staleness_timeline:
            self.staleness_sink = StalenessTimeline().attach(self.bus)
        self.invariant_engine: InvariantEngine | None = None
        if config.invariants:
            self.invariant_engine = InvariantEngine().attach(self.bus)
        if config.profile:
            self.env.profiler = WallClockProfiler()
        root_rng = RandomStream(config.seed, label="root")

        self.database: Database = build_default_database(
            config.num_objects, rng=root_rng.fork("database")
        )
        schedule = self._build_disconnections(root_rng)
        faults: FaultConfig | None = None
        if config.faults_enabled:
            faults = FaultConfig(
                loss_rate=config.loss_rate,
                burst_loss_rate=config.burst_loss_rate,
                burst_on_probability=config.burst_on_probability,
                burst_off_probability=config.burst_off_probability,
            )
        recovery: RecoveryPolicy | None = None
        if config.recovery_enabled:
            recovery = RecoveryPolicy(
                timeout_seconds=config.request_timeout_seconds,
                retry_budget=config.retry_budget,
                backoff_base_seconds=config.backoff_base_seconds,
                backoff_multiplier=config.backoff_multiplier,
                backoff_jitter=config.backoff_jitter,
            )
        self.network = Network(
            self.env,
            bandwidth_bps=config.wireless_bps,
            schedule=schedule,
            faults=faults,
            fault_rng=root_rng.fork("faults") if faults else None,
            bus=self.bus,
        )
        tracker = AttributeAccessTracker(
            k_sigma=config.prefetch_k_sigma,
            floor_at_uniform=config.prefetch_floor_at_uniform,
        )
        granularity = CachingGranularity.parse(config.granularity)
        self.server = DatabaseServer(
            self.env,
            self.database,
            self.network,
            buffer_capacity=config.server_buffer_objects,
            beta=config.beta,
            prefetch_tracker=tracker,
            split_delivery=config.prefetch_split_delivery,
            trailer_drop_queue_threshold=(
                config.trailer_drop_queue_threshold
            ),
            objects_per_page=config.objects_per_page,
            coherence_mode=config.coherence,
            ir_interval=config.ir_interval_seconds,
            ir_object_keys=granularity.caches_objects,
            disk_bandwidth_bps=config.disk_bps,
            memory_bandwidth_bps=config.memory_bps,
        )

        kind = (
            QueryKind.ASSOCIATIVE
            if config.query_kind == "AQ"
            else QueryKind.NAVIGATIONAL
        )
        self.clients: list[MobileClient] = []
        for client_id in range(config.num_clients):
            # ``fork`` joins labels with "/", so forking the root gives
            # each stream the seed a fork of a ``client-N`` stream had,
            # without seeding a generator nothing draws from.
            prefix = f"client-{client_id}"
            heat = self._build_heat(root_rng.fork(f"{prefix}/heat"))
            workload = QueryWorkload(
                client_id=client_id,
                database=self.database,
                heat=heat,
                rng=root_rng.fork(f"{prefix}/queries"),
                kind=kind,
                selectivity=config.selectivity,
                attrs_per_object=config.attrs_per_object,
                update_probability=config.update_probability,
                attribute_skew=config.attribute_skew,
            )
            arrivals = self._build_arrivals(
                root_rng.fork(f"{prefix}/arrivals")
            )
            client = MobileClient(
                client_id=client_id,
                env=self.env,
                network=self.network,
                server=self.server,
                database=self.database,
                workload=workload,
                arrivals=arrivals,
                granularity=granularity,
                replacement_spec=config.replacement,
                cache_objects=config.client_cache_objects,
                buffer_objects=config.client_buffer_objects,
                object_size_bytes=self.database.schema.class_def(
                    "Root"
                ).object_size_bytes,
                attribute_entry_overhead=config.attribute_entry_overhead_bytes,
                objects_per_page=config.objects_per_page,
                coherence_mode=config.coherence,
                ir_interval=config.ir_interval_seconds,
                recovery=recovery,
                recovery_rng=(
                    root_rng.fork(f"{prefix}/recovery") if recovery else None
                ),
                bus=self.bus,
                disk_bandwidth_bps=config.disk_bps,
                memory_bandwidth_bps=config.memory_bps,
            )
            self.clients.append(client)

    # ------------------------------------------------------------------
    def _build_heat(self, rng: RandomStream) -> HeatDistribution:
        config = self.config
        oids = self.database.oids("Root")
        if config.heat == "SH":
            return SkewedHeat(
                oids,
                rng,
                hot_fraction=config.hot_fraction,
                hot_access_probability=config.hot_access_probability,
            )
        if config.heat == "CSH":
            return ChangingSkewedHeat(
                oids,
                rng,
                change_every=config.csh_change_every,
                hot_fraction=config.hot_fraction,
                hot_access_probability=config.hot_access_probability,
            )
        if config.heat == "cyclic":
            return CyclicHeat(
                oids,
                rng,
                hot_fraction=config.hot_fraction,
                scan_fraction=config.cyclic_scan_fraction,
            )
        if config.heat == "uniform":
            return UniformHeat(oids, rng)
        if config.heat == "scan":
            return SequentialScanHeat(
                oids,
                rng,
                scan_every=config.scan_every,
                hot_fraction=config.hot_fraction,
                hot_access_probability=config.hot_access_probability,
            )
        if config.heat == "zipf":
            return ZipfHeat(oids, rng, s=config.zipf_s)
        if config.heat == "hotspot":
            return ShiftingHotspotHeat(
                oids,
                rng,
                shift_every=config.hotspot_shift_every,
                hot_fraction=config.hot_fraction,
                hot_access_probability=config.hot_access_probability,
            )
        raise ConfigurationError(f"unknown heat pattern {config.heat!r}")

    def _build_arrivals(self, rng: RandomStream) -> ArrivalProcess:
        if self.config.arrival == "poisson":
            return PoissonArrival(rng, rate=self.config.arrival_rate)
        return BurstyArrival(rng)

    def _build_disconnections(
        self, root_rng: RandomStream
    ) -> DisconnectionSchedule:
        config = self.config
        if not config.disconnected_clients:
            return DisconnectionSchedule()
        return plan_single_windows(
            client_ids=list(range(config.disconnected_clients)),
            duration=config.disconnection_seconds,
            horizon=config.horizon_seconds,
            rng=root_rng.fork("disconnections"),
        )

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run to the configured horizon and summarise.

        A simulation runs once.  Its end breaks the run's reference
        cycles (:meth:`_release`), so a dropped simulation is freed by
        reference counting alone.
        """
        if self._ran:
            raise SimulationError(
                "this Simulation has already run; build a new one to "
                "run the config again"
            )
        self._ran = True
        try:
            return self._run()
        finally:
            self._release()

    def _run(self) -> SimulationResult:
        with contextlib.ExitStack() as stack:
            # Flush the trace tail even when the run dies mid-flight —
            # a partial trace of a crashed run is exactly what you want.
            if self.trace_sink is not None:
                stack.enter_context(self.trace_sink)
            self.server.start()
            for client in self.clients:
                client.start()
            _pause_collector(stack)
            self.env.run(until=self.config.horizon_seconds)
            for client in self.clients:
                client.finalize_metrics()
        summary = MetricsSummary([c.metrics for c in self.clients])
        invariant_report: InvariantReport | None = None
        if self.invariant_engine is not None:
            self.invariant_engine.reconcile(
                RunContext(
                    metrics={c.client_id: c.metrics for c in self.clients},
                    channel_stats={
                        channel.name: channel.stats
                        for channel in self.network.channels()
                    },
                    caches={
                        (c.client_id, c.cache.name): c.cache
                        for c in self.clients
                    },
                    raw_bytes=self.network.raw_bytes,
                    goodput_bytes=self.network.goodput_bytes,
                )
            )
            invariant_report = self.invariant_engine.report()
        profiler = self.env.profiler
        return SimulationResult(
            config=self.config,
            summary=summary,
            uplink_utilization=self.network.uplink.utilization(),
            downlink_utilization=self.network.downlink.utilization(),
            server_buffer_hit_ratio=self.server.storage.buffer_hit_ratio,
            items_prefetched=self.server.items_prefetched,
            requests_served=self.server.requests_served,
            events_processed=self.env.events_processed,
            messages_dropped=self.network.messages_dropped,
            messages_aborted=self.network.messages_aborted,
            raw_bytes=self.network.raw_bytes,
            goodput_bytes=self.network.goodput_bytes,
            event_counts=dict(self.bus.counts),
            profile=profiler.snapshot() if profiler is not None else None,
            staleness=(
                self.staleness_sink.series()
                if self.staleness_sink is not None
                else []
            ),
            trace_events=(
                self.trace_sink.events_written
                if self.trace_sink is not None
                else 0
            ),
            invariants=invariant_report,
        )

    def _release(self) -> None:
        """Break the wiring's reference cycles once the run is over.

        Server and clients refer to each other, and every process
        waiting at the horizon is held by an event that its generator
        holds in turn.  Dropping the waiters of every channel and store,
        the server's client callbacks and the kernel's pending events
        leaves a graph that reference counting frees.  The channels go
        first, so a freed transmission releases nothing.  Caches,
        policies, metrics and counters stay readable.
        """
        for channel in self.network.channels():
            channel.close()
        self.server.close()
        for client in self.clients:
            client.reply_box.close()
        self.env.close()


def _pause_collector(stack: contextlib.ExitStack) -> None:
    """Switch the cyclic garbage collector off until ``stack`` closes,
    if it is on.

    Its passes start when allocations outrun deallocations, that is,
    while a run's live state grows, and on a run they find nothing: a
    running simulation drops no reference cycles, so reference counting
    frees whatever it lets go, and a finished one breaks its own
    (``tests/integration/test_no_reference_cycles.py`` checks both).
    """
    if not gc.isenabled():
        return
    gc.disable()
    stack.callback(gc.enable)


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Convenience wrapper: build and run in one call."""
    return Simulation(config).run()
