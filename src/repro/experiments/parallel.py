"""Parallel execution engine for experiment sweeps.

A scenario's replication plan declares an ordered list of runs; this
module fans that list out over a ``multiprocessing`` pool.  The engine's
contract, which the determinism test suite locks down:

* **Bit-identical results at any worker count.**  Each run is a pure
  function of its :class:`RunDescriptor` — the config carries the seed,
  and every stream inside the simulation derives from it — so
  ``jobs=8`` produces exactly the rows ``jobs=1`` does, regardless of
  completion order.
* **Declaration order out.**  Workers complete in whatever order the
  scheduler likes; outcomes are re-sorted to the declared run order
  before anyone sees them.
* **Crash isolation.**  A run that raises inside a worker surfaces its
  label and full traceback as a :class:`RunFailure` without killing the
  rest of the sweep.
* **Serial fallback.**  ``jobs=1`` (the default) bypasses the pool
  entirely and executes runs in-process, in order — the exact
  pre-parallel code path.

Worker-count resolution: an explicit ``jobs`` argument wins, then the
``REPRO_JOBS`` environment variable, then 1 (serial).  ``jobs=0`` means
"all cores" (``os.cpu_count()``).

Seed handling: every run keeps its config's own seed.  Seeds are chosen
upstream — by :class:`~repro.experiments.scenarios.plan.ReplicationPlan`
for scenario sweeps and by :func:`plan_shards` for sharded fleets — so
the executor never perturbs a stream.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import sys
import time
import traceback
import typing as t
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

from repro._units import WallSeconds
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import SimulationConfig
from repro.sim.rand import spawn_seed

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import SimulationResult
    from repro.metrics.collectors import MetricsSummary

#: Environment variable consulted when no explicit ``jobs`` is given.
JOBS_ENV_VAR = "REPRO_JOBS"


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a worker count: explicit arg > ``REPRO_JOBS`` env > 1.

    ``0`` (from either source) means "all cores".  Negative counts and a
    non-integer ``REPRO_JOBS`` raise :class:`ConfigurationError`.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ConfigurationError(
                    f"{JOBS_ENV_VAR} must be an integer, got {raw!r}"
                ) from None
        else:
            jobs = 1
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ConfigurationError(
            f"jobs must be >= 1 (or 0 for all cores), got {jobs}"
        )
    return jobs


@dataclasses.dataclass(frozen=True)
class RunDescriptor:
    """One run of a sweep, picklable for shipment to a worker process.

    Everything a worker needs — the dimensions identifying the run and
    the full config — is plain data.  ``index`` is the run's position in
    the declared list and fixes the output order.
    """

    index: int
    dims: dict[str, t.Any]
    config: SimulationConfig

    def label(self) -> str:
        return self.config.label()


@dataclasses.dataclass
class RunOutcome:
    """What came back from one run: a result or a formatted traceback."""

    index: int
    dims: dict[str, t.Any]
    label: str
    elapsed_seconds: WallSeconds
    result: t.Any = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclasses.dataclass
class RunFailure:
    """A run that raised inside its worker, with enough context to act on."""

    index: int
    dims: dict[str, t.Any]
    label: str
    traceback: str


def execute_descriptor(descriptor: RunDescriptor) -> RunOutcome:
    """Execute one run, catching any failure into the outcome.

    Module-level (not a closure) so it pickles under the ``spawn`` start
    method; imported lazily so descriptor construction stays cheap.
    """
    from repro.experiments.runner import run_simulation

    started = time.perf_counter()  # repro: noqa REP001 -- wall-clock metadata
    try:
        result = run_simulation(descriptor.config)
    except Exception:
        return RunOutcome(
            index=descriptor.index,
            dims=descriptor.dims,
            label=descriptor.label(),
            elapsed_seconds=(
                time.perf_counter()  # repro: noqa REP001 -- wall-clock metadata
                - started
            ),
            error=traceback.format_exc(),
        )
    return RunOutcome(
        index=descriptor.index,
        dims=descriptor.dims,
        label=descriptor.label(),
        elapsed_seconds=(
            time.perf_counter()  # repro: noqa REP001 -- wall-clock metadata
            - started
        ),
        result=result,
    )


class ParallelExecutor:
    """Fan a descriptor list over worker processes; return declared order.

    ``jobs=1`` executes in-process, serially, in declaration order.  ``jobs>1`` uses a spawn-context
    ``ProcessPoolExecutor`` (spawn is fork-safe on every platform and
    matches what macOS/Windows force anyway).
    """

    def __init__(
        self,
        jobs: int | None = None,
        progress: bool = False,
        stream: t.TextIO | None = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.progress = progress
        self.stream = stream if stream is not None else sys.stderr

    # ------------------------------------------------------------------
    def run(
        self, experiment_id: str, descriptors: t.Sequence[RunDescriptor]
    ) -> list[RunOutcome]:
        """Execute every descriptor; outcomes come back in declared order."""
        if self.jobs == 1 or len(descriptors) <= 1:
            return self._run_serial(experiment_id, descriptors)
        return self._run_pool(experiment_id, descriptors)

    # ------------------------------------------------------------------
    def _report(
        self,
        experiment_id: str,
        outcome: RunOutcome,
        done: int,
        total: int,
    ) -> None:
        if not self.progress:
            return
        status = "" if outcome.ok else " FAILED"
        print(
            f"[{experiment_id}] run {done}/{total}: {outcome.label}"
            f" ({outcome.elapsed_seconds:.1f}s{status})",
            file=self.stream,
            flush=True,
        )
        if outcome.error is not None:
            print(outcome.error, file=self.stream, flush=True)

    def _run_serial(
        self, experiment_id: str, descriptors: t.Sequence[RunDescriptor]
    ) -> list[RunOutcome]:
        outcomes = []
        for done, descriptor in enumerate(descriptors, start=1):
            outcome = execute_descriptor(descriptor)
            self._report(experiment_id, outcome, done, len(descriptors))
            outcomes.append(outcome)
        return outcomes

    def _run_pool(
        self, experiment_id: str, descriptors: t.Sequence[RunDescriptor]
    ) -> list[RunOutcome]:
        context = multiprocessing.get_context("spawn")
        workers = min(self.jobs, len(descriptors))
        outcomes: dict[int, RunOutcome] = {}
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as pool:
            pending = {
                pool.submit(execute_descriptor, descriptor): descriptor
                for descriptor in descriptors
            }
            done = 0
            while pending:
                finished, __ = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    descriptor = pending.pop(future)
                    try:
                        outcome = future.result()
                    except Exception:
                        # The worker died outright (e.g. OOM-killed) or
                        # the result failed to unpickle; synthesise a
                        # failure so the sweep keeps going.
                        outcome = RunOutcome(
                            index=descriptor.index,
                            dims=descriptor.dims,
                            label=descriptor.label(),
                            elapsed_seconds=0.0,
                            error=traceback.format_exc(),
                        )
                    done += 1
                    self._report(
                        experiment_id, outcome, done, len(descriptors)
                    )
                    outcomes[outcome.index] = outcome
        return [outcomes[d.index] for d in descriptors]


# ----------------------------------------------------------------------
# Population sharding: one large fleet split across worker processes
# ----------------------------------------------------------------------
#
# A single fleet-scale run is CPU-bound on one core.  Sharded mode
# splits the client population into ``shards`` independent *cells* —
# each with its own server replica, uplink/downlink pair and client
# subset — runs the cells across the process pool, and merges their
# per-shard metrics and channel state into one fleet-level view.
#
# Sharding is a *modelling choice*, not a decomposition of the
# monolithic run: clients contend for the wireless channel only within
# their own cell, exactly as a multi-cell deployment would behave.  What
# the determinism suite pins instead: the sharded result is a pure
# function of ``(config, shards)`` — worker count and completion order
# never change a byte (serial ``jobs=1`` ≡ pooled ``jobs=N``).
#
# Seeding rides the existing ``spawn_seed`` hierarchy: shard ``i`` of
# ``n`` derives ``spawn_seed(config.seed, "shard:i/n")``, so shard
# streams are decorrelated from each other and from the unsharded run,
# and a shard's stream never depends on pool scheduling.


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """One cell of a sharded fleet, picklable for a worker process."""

    index: int
    shards: int
    #: Global id of this shard's first client; shard-local client ids
    #: are offset by this at merge time so fleet-level ids stay unique.
    client_base: int
    config: SimulationConfig


@dataclasses.dataclass
class FleetResult:
    """Merged whole-fleet view over the per-shard simulation results."""

    config: SimulationConfig
    shards: int
    #: Client-level metrics merged across every shard (client ids
    #: relabelled to the global numbering).
    summary: "MetricsSummary"
    #: Kernel events processed, summed over shards.
    events_processed: int
    requests_served: int
    raw_bytes: float
    goodput_bytes: float
    #: Mean utilisation across the per-cell channels.
    uplink_utilization: float
    downlink_utilization: float
    #: Bus emissions per event type, summed over shards.
    event_counts: dict[str, int]
    per_shard: "list[SimulationResult]"

    @property
    def num_clients(self) -> int:
        return len(self.summary.clients)

    @property
    def hit_ratio(self) -> float:
        return self.summary.hit_ratio

    @property
    def response_time(self) -> float:
        return self.summary.response_time

    @property
    def error_rate(self) -> float:
        return self.summary.error_rate


def plan_shards(config: SimulationConfig, shards: int) -> list[ShardPlan]:
    """Split ``config``'s client population into per-cell configs.

    Clients spread as evenly as possible (the first ``n % shards``
    cells take one extra).  Each cell's config is the fleet config with
    its own client count and a ``spawn_seed``-derived seed; nothing
    else changes, so per-client workload parameters are identical
    across cells.
    """
    if shards < 1:
        raise SimulationError(f"shards must be >= 1, got {shards!r}")
    if shards > config.num_clients:
        raise SimulationError(
            f"cannot split {config.num_clients} clients into "
            f"{shards} shards"
        )
    base_size, remainder = divmod(config.num_clients, shards)
    plans = []
    client_base = 0
    for index in range(shards):
        size = base_size + (1 if index < remainder else 0)
        plans.append(
            ShardPlan(
                index=index,
                shards=shards,
                client_base=client_base,
                config=config.replaced(
                    num_clients=size,
                    seed=spawn_seed(config.seed, f"shard:{index}/{shards}"),
                ),
            )
        )
        client_base += size
    return plans


def merge_shards(
    plans: t.Sequence[ShardPlan],
    outcomes: t.Sequence[RunOutcome],
    config: SimulationConfig,
) -> FleetResult:
    """Fold per-shard outcomes into one :class:`FleetResult`.

    Client-additive metrics merge exactly (the collectors' ``merge``
    machinery is order-insensitive); channel utilisations are averaged
    across cells.  A failed shard aborts the merge — a fleet missing a
    cell would silently misreport every headline number.
    """
    from repro.metrics.collectors import MetricsSummary

    failures = [outcome for outcome in outcomes if not outcome.ok]
    if failures:
        details = "\n".join(
            f"shard {outcome.index}: {outcome.error}"
            for outcome in failures
        )
        raise SimulationError(
            f"{len(failures)} of {len(plans)} shards failed:\n{details}"
        )
    results: "list[SimulationResult]" = [
        outcome.result for outcome in outcomes
    ]
    clients = []
    event_counts: dict[str, int] = {}
    for plan, result in zip(plans, results):
        for metrics in result.summary.clients:
            # Shard-local ids become global fleet ids at merge
            # time; no bus event carries this relabelling.
            metrics.client_id += plan.client_base  # repro: noqa REP008 -- id relabel
            clients.append(metrics)
        for name, count in result.event_counts.items():
            event_counts[name] = event_counts.get(name, 0) + count
    cells = len(results)
    return FleetResult(
        config=config,
        shards=cells,
        summary=MetricsSummary(clients),
        events_processed=sum(r.events_processed for r in results),
        requests_served=sum(r.requests_served for r in results),
        raw_bytes=sum(r.raw_bytes for r in results),
        goodput_bytes=sum(r.goodput_bytes for r in results),
        uplink_utilization=(
            sum(r.uplink_utilization for r in results) / cells
        ),
        downlink_utilization=(
            sum(r.downlink_utilization for r in results) / cells
        ),
        event_counts=event_counts,
        per_shard=results,
    )


def run_sharded(
    config: SimulationConfig,
    shards: int,
    jobs: int | None = None,
    progress: bool = False,
) -> FleetResult:
    """Run one large client population as ``shards`` cells in parallel.

    ``jobs`` resolves exactly as everywhere else (explicit arg >
    ``REPRO_JOBS`` > serial) and only controls wall-clock: the merged
    result is bit-identical at any worker count.
    """
    plans = plan_shards(config, shards)
    descriptors = [
        RunDescriptor(
            index=plan.index,
            dims={"shard": plan.index},
            config=plan.config,
        )
        for plan in plans
    ]
    executor = ParallelExecutor(jobs=jobs, progress=progress)
    outcomes = executor.run(f"fleet-x{shards}", descriptors)
    return merge_shards(plans, outcomes, config)
