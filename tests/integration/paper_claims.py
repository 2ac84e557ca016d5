"""The paper's Figure 2, 7 and 8 claims, each declared once.

A :class:`Claim` names the scenario it runs, the cells it compares, a
predicate over those cells' results and the threshold the predicate
reads.  For each tier it names the horizon the claim runs at and, where
the tier compares fewer cells than the claim declares, a narrower cell
filter.  The tiers:

* ``tier1`` — ``tests/integration/test_paper_shapes.py``, in the
  default ``pytest`` run;
* ``bench`` — ``benchmarks/test_paper_claims.py`` under ``-m bench``;
* ``full`` — the same bench module under ``REPRO_FULL=1``, at the
  paper's 96 h horizon.

A claim with no entry for a tier is not checked there.  One threshold
serves every tier, so a claim is read as strictly at every horizon.
Every run is one replication at seed 42 with no warm-up — the paper's
single-run table — and the predicates read each run's
:class:`~repro.experiments.runner.SimulationResult`, so every value is
exactly what ``run_simulation`` gives for the cell's config.  The
horizons are reduced, so the claims are orderings and directions, not
absolute values.
"""

from __future__ import annotations

import dataclasses
import os
import typing as t

from repro.experiments.config import SimulationConfig
from repro.experiments.parallel import (
    JOBS_ENV_VAR,
    ParallelExecutor,
    RunDescriptor,
)
from repro.experiments.runner import SimulationResult
from repro.experiments.scenarios import (
    ReplicationPlan,
    Scenario,
    get_scenario,
)
from repro.experiments.scenarios.specs import PAPER_SPECS

TIER1 = "tier1"
BENCH = "bench"
FULL = "full"

SEED = 42
CACHED = ("AC", "OC", "HC")

#: A cell filter: dimension name -> the values a compared cell may take.
Where = t.Mapping[str, tuple[t.Any, ...]]

#: Experiment #1's base point, the paper's default workload.
AQ_POISSON_SH: Where = {
    "query_kind": ("AQ",),
    "arrival": ("poisson",),
    "heat": ("SH",),
}

#: Figure 8a-c's sweep plus the 0.25 h and 2 h windows tier-1 compares.
DURATIONS = Scenario.from_dict("claims-durations", {
    **PAPER_SPECS["exp6-durations"],
    "sweep": [
        {"name": "granularity", "values": list(CACHED)},
        {
            "name": "duration_hours",
            "field": "disconnection_hours",
            "values": [0.25, 1.0, 2.0, 4.0, 7.0, 10.0],
        },
    ],
})


class ClaimRuns:
    """One claim's compared cells and their results, found by dims."""

    def __init__(
        self, pairs: t.Sequence[tuple[dict[str, t.Any], SimulationResult]]
    ) -> None:
        self.pairs = list(pairs)

    def __call__(self, **dims: t.Any) -> SimulationResult:
        """The result of the one compared cell matching ``dims``."""
        matching = [
            result
            for cell_dims, result in self.pairs
            if all(cell_dims[name] == want for name, want in dims.items())
        ]
        assert len(matching) == 1, f"{len(matching)} cells match {dims!r}"
        return matching[0]

    def values(self, dim: str) -> list[t.Any]:
        """The compared values of ``dim``, in declaration order."""
        return list(dict.fromkeys(dims[dim] for dims, __ in self.pairs))


@dataclasses.dataclass(frozen=True)
class Tier:
    """Where a claim runs in one tier."""

    hours: float
    #: Narrows the claim's cells in this tier.
    where: Where = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class Claim:
    """One paper claim: what it runs, what it asserts, and where."""

    name: str
    doc: str
    scenario: Scenario
    cells: Where
    check: t.Callable[[ClaimRuns, float], None]
    tiers: t.Mapping[str, Tier]
    #: The bound ``check`` reads (a divisor, factor or slack); 0 for a
    #: predicate without one.
    threshold: float = 0.0

    def planned(
        self, tier: str
    ) -> list[tuple[dict[str, t.Any], SimulationConfig]]:
        """``(dims, config)`` of every cell compared in ``tier``, built
        by the scenario's own one-replication plan."""
        level = self.tiers[tier]
        where = {**self.cells, **level.where}
        plan = ReplicationPlan(
            self.scenario,
            replications=1,
            horizon_hours=level.hours,
            seed=SEED,
        )
        unknown = set(where) - set(plan.cells[0].dims_dict())
        assert not unknown, f"{self.name}: no dimension {unknown}"
        return [
            (run.cell.dims_dict(), plan.descriptor(run).config)
            for run in plan.runs()
            if all(
                value in where[name]
                for name, value in run.cell.dims
                if name in where
            )
        ]

    def verify(
        self, tier: str, results: t.Mapping[tuple, SimulationResult]
    ) -> ClaimRuns:
        """Check the claim in ``tier`` against results from
        :func:`run_claim_cells`; return the runs it compared."""
        runs = ClaimRuns([
            (dims, results[dataclasses.astuple(config)])
            for dims, config in self.planned(tier)
        ])
        self.check(runs, self.threshold)
        return runs


def run_claim_cells(
    claims: t.Iterable[Claim], tier: str
) -> dict[tuple, SimulationResult]:
    """Run every distinct config the claims compare in ``tier`` once.

    Runs go through :class:`ParallelExecutor`, longest horizon first so
    the long runs do not trail the pool.  Jobs come from ``REPRO_JOBS``
    and default to all cores.  Results are keyed by the config's field
    values.
    """
    configs: dict[tuple, SimulationConfig] = {}
    for claim in claims:
        for __, config in claim.planned(tier):
            configs.setdefault(dataclasses.astuple(config), config)
    ordered = sorted(
        configs.items(), key=lambda item: -item[1].horizon_hours
    )
    jobs = None if os.environ.get(JOBS_ENV_VAR, "").strip() else 0
    outcomes = ParallelExecutor(jobs=jobs).run(
        f"paper-claims-{tier}",
        [
            RunDescriptor(index=index, dims={}, config=config)
            for index, (__, config) in enumerate(ordered)
        ],
    )
    failed = [outcome for outcome in outcomes if not outcome.ok]
    assert not failed, "\n".join(
        f"{outcome.label}:\n{outcome.error}" for outcome in failed
    )
    return {
        key: outcome.result
        for (key, __), outcome in zip(ordered, outcomes, strict=True)
    }


# ----------------------------------------------------------------------
# Predicates: each takes a claim's runs and the claim's threshold.


def nc_far_worse(run: ClaimRuns, divisor: float) -> None:
    nc = run(granularity="NC")
    for granularity in CACHED:
        cached = run(granularity=granularity)
        assert nc.hit_ratio < cached.hit_ratio / divisor
        assert nc.response_time > 2 * cached.response_time


def oc_more_hits_slower_responses(run: ClaimRuns, __: float) -> None:
    ac, oc = run(granularity="AC"), run(granularity="OC")
    assert oc.hit_ratio > ac.hit_ratio
    assert oc.response_time > 1.5 * ac.response_time


def hc_near_ac(run: ClaimRuns, __: float) -> None:
    ac, oc, hc = (run(granularity=g) for g in CACHED)
    assert hc.response_time < (ac.response_time + oc.response_time) / 2
    assert hc.response_time < 1.3 * ac.response_time
    assert hc.hit_ratio > ac.hit_ratio


def oc_errors_highest(run: ClaimRuns, __: float) -> None:
    for beta in run.values("beta"):
        ac, oc, hc = (
            run(granularity=g, beta=beta).error_rate for g in CACHED
        )
        assert oc > ac
        assert oc > hc


def hc_errors_at_most_ac(run: ClaimRuns, slack: float) -> None:
    for beta in run.values("beta"):
        ac = run(granularity="AC", beta=beta).error_rate
        hc = run(granularity="HC", beta=beta).error_rate
        assert hc <= ac + slack


def csh_trails_sh(run: ClaimRuns, slack: float) -> None:
    for granularity in run.values("granularity"):
        sh = run(granularity=granularity, heat="SH").hit_ratio
        csh = run(granularity=granularity, heat="CSH").hit_ratio
        # Until a client's hot set first moves, CSH issues SH's queries
        # and the comparison below would hold vacuously.
        assert csh != sh, f"{granularity}: CSH's hot set never moved"
        assert csh <= sh + slack


def nq_slower_than_aq(run: ClaimRuns, factor: float) -> None:
    aq, nq = run(query_kind="AQ"), run(query_kind="NQ")
    assert nq.response_time > factor * aq.response_time


def bursty_nq_slower(run: ClaimRuns, __: float) -> None:
    for granularity in run.values("granularity"):
        poisson = run(granularity=granularity, arrival="poisson")
        bursty = run(granularity=granularity, arrival="bursty")
        assert bursty.response_time > poisson.response_time


def along(
    run: ClaimRuns, dim: str, metric: str
) -> t.Iterator[list[float]]:
    """Per granularity, ``metric`` along the compared values of ``dim``."""
    for granularity in run.values("granularity"):
        yield [
            getattr(run(granularity=granularity, **{dim: value}), metric)
            for value in run.values(dim)
        ]


def hits_rise_with_beta(run: ClaimRuns, __: float) -> None:
    for hits in along(run, "beta", "hit_ratio"):
        assert hits == sorted(hits)


def errors_rise_with_beta(run: ClaimRuns, __: float) -> None:
    for errors in along(run, "beta", "error_rate"):
        assert errors == sorted(errors)


def responses_fall_with_beta(run: ClaimRuns, factor: float) -> None:
    for responses in along(run, "beta", "response_time"):
        assert responses[-1] <= factor * responses[0]


def errors_rise_with_u(run: ClaimRuns, __: float) -> None:
    for errors in along(run, "update_probability", "error_rate"):
        assert errors[0] < errors[-1]


def hits_fall_with_u(run: ClaimRuns, __: float) -> None:
    for hits in along(run, "update_probability", "hit_ratio"):
        assert hits == sorted(hits, reverse=True)


def disconnected_errors_rise_with_duration(
    run: ClaimRuns, slack: float
) -> None:
    for errors in along(run, "duration_hours", "disconnected_error_rate"):
        assert errors[0] < errors[-1]
        for earlier, later in zip(errors, errors[2:], strict=False):
            assert earlier <= later + slack


def errors_rise_with_disconnected_clients(
    run: ClaimRuns, slack: float
) -> None:
    for errors in along(run, "disconnected_clients", "error_rate"):
        assert errors[-1] >= errors[0] - slack


# ----------------------------------------------------------------------
# The claims.

EXP1 = get_scenario("exp1-granularity")
EXP5 = get_scenario("exp5-coherence")
#: Figure 7's U = 0.1 slice.
LOW_U: Where = {"update_probability": (0.1,)}
#: Figure 8a-c's registered durations.
PAPER_DURATIONS: Where = {"duration_hours": (1.0, 4.0, 7.0, 10.0)}

CLAIMS: dict[str, Claim] = {claim.name: claim for claim in (
    Claim(
        "nc-far-worse",
        "Figure 2: no caching is far worse than any storage cache, in "
        "hit ratio and in response time.",
        EXP1,
        {**AQ_POISSON_SH, "granularity": ("NC", *CACHED)},
        nc_far_worse,
        {TIER1: Tier(6.0), BENCH: Tier(3.0), FULL: Tier(96.0)},
        threshold=3.0,
    ),
    Claim(
        "oc-more-hits-slower-responses",
        "Figure 2: OC gets more hits than AC, but blind prefetching "
        "over the 19.2 kbps channel makes it respond slower.",
        EXP1,
        {**AQ_POISSON_SH, "granularity": ("AC", "OC")},
        oc_more_hits_slower_responses,
        {TIER1: Tier(6.0), BENCH: Tier(3.0), FULL: Tier(96.0)},
    ),
    Claim(
        "hc-near-ac",
        "Figure 2: HC responds near AC, far below OC, and hits more "
        "often than AC.",
        EXP1,
        {**AQ_POISSON_SH, "granularity": CACHED},
        hc_near_ac,
        {TIER1: Tier(6.0), BENCH: Tier(3.0), FULL: Tier(96.0)},
    ),
    Claim(
        "oc-errors-highest",
        "Figures 2 and 7: OC's stale-read rate exceeds AC's and HC's "
        "wherever object caching functions (beta >= 0).",
        EXP5,
        {**LOW_U, "beta": (0.0, 1.0)},
        oc_errors_highest,
        {
            TIER1: Tier(6.0, where={"beta": (0.0,)}),
            BENCH: Tier(4.0),
            FULL: Tier(96.0),
        },
    ),
    Claim(
        "hc-errors-at-most-ac",
        "Figures 2 and 7: HC's prefetch refreshes keep its error rate "
        "at or below AC's.",
        EXP5,
        {**LOW_U, "beta": (0.0, 1.0), "granularity": ("AC", "HC")},
        hc_errors_at_most_ac,
        {
            TIER1: Tier(6.0, where={"beta": (0.0,)}),
            BENCH: Tier(4.0),
            FULL: Tier(96.0),
        },
        threshold=0.01,
    ),
    Claim(
        "csh-trails-sh",
        "Figure 2: the changing hot set (CSH) costs the storage caches "
        "at most a few points of hit ratio against SH.  A client's hot "
        "set first moves after its 500th query (``csh_change_every``), "
        "about 13.9 h in at 0.01 queries/s, so the bench runs 16 h.",
        EXP1,
        {
            "query_kind": ("AQ",),
            "arrival": ("poisson",),
            "granularity": CACHED,
        },
        csh_trails_sh,
        {BENCH: Tier(16.0), FULL: Tier(96.0)},
        threshold=0.05,
    ),
    Claim(
        "nq-slower-than-aq",
        "Navigational queries ship far more data than associative "
        "ones and respond much slower.",
        EXP1,
        {
            "granularity": ("HC",),
            "arrival": ("poisson",),
            "heat": ("SH",),
        },
        nq_slower_than_aq,
        {TIER1: Tier(6.0), BENCH: Tier(3.0)},
        threshold=1.4,
    ),
    Claim(
        "bursty-nq-slower",
        "Figure 2h: bursty NQ arrivals congest the channel, so they "
        "respond slower than Poisson ones.  The day profile's first "
        "burst starts at 07:00, so this needs a horizon of 10 h or "
        "more; before it, bursty arrivals are sparser than Poisson.",
        EXP1,
        {"query_kind": ("NQ",), "heat": ("SH",), "granularity": CACHED},
        bursty_nq_slower,
        {
            TIER1: Tier(12.0, where={"granularity": ("HC",)}),
            BENCH: Tier(12.0),
            FULL: Tier(96.0),
        },
    ),
    Claim(
        "hits-rise-with-beta",
        "Figure 7: a larger beta stretches refresh times, so hit "
        "ratios grow with it.",
        EXP5,
        LOW_U,
        hits_rise_with_beta,
        {
            TIER1: Tier(6.0, where={"granularity": ("HC",)}),
            BENCH: Tier(4.0),
            FULL: Tier(96.0),
        },
    ),
    Claim(
        "errors-rise-with-beta",
        "Figure 7: the longer refresh times of a larger beta serve "
        "more stale reads.",
        EXP5,
        LOW_U,
        errors_rise_with_beta,
        {
            TIER1: Tier(6.0, where={"granularity": ("HC",)}),
            BENCH: Tier(4.0),
            FULL: Tier(96.0),
        },
    ),
    Claim(
        "responses-fall-with-beta",
        "Figure 7: more hits at a larger beta mean faster responses.",
        EXP5,
        {**LOW_U, "beta": (-1.0, 1.0)},
        responses_fall_with_beta,
        {
            TIER1: Tier(6.0, where={"granularity": ("HC",)}),
            BENCH: Tier(4.0),
            FULL: Tier(96.0),
        },
        threshold=1.05,
    ),
    Claim(
        "errors-rise-with-u",
        "Figure 7: more writes mean more stale reads.  The direction "
        "depends on the regime (exposure against expiry; see "
        "EXPERIMENTS.md), so only tier-1's exposure-regime instance "
        "asserts it.",
        EXP5,
        {
            "granularity": ("HC",),
            "beta": (0.0,),
            "update_probability": (0.1, 0.5),
        },
        errors_rise_with_u,
        {TIER1: Tier(6.0)},
    ),
    Claim(
        "hits-fall-with-u",
        "Figure 7: more writes can only destroy hits, never create "
        "them.",
        EXP5,
        {"beta": (0.0,)},
        hits_fall_with_u,
        {
            TIER1: Tier(
                6.0,
                where={
                    "granularity": ("HC",),
                    "update_probability": (0.1, 0.5),
                },
            ),
            BENCH: Tier(4.0),
            FULL: Tier(96.0),
        },
    ),
    Claim(
        "disconnected-errors-rise-with-duration",
        "Figures 8a-8c: stale reads among the reads disconnected "
        "clients serve locally grow with the disconnection duration.  "
        "The bench sweep needs 16 h to fit the paper's hour-scale "
        "windows with room for connected operation.",
        DURATIONS,
        {},
        disconnected_errors_rise_with_duration,
        {
            TIER1: Tier(
                6.0,
                where={
                    "granularity": ("HC",),
                    "duration_hours": (0.25, 2.0),
                },
            ),
            BENCH: Tier(16.0, where=PAPER_DURATIONS),
            FULL: Tier(96.0, where=PAPER_DURATIONS),
        },
        threshold=0.05,
    ),
    Claim(
        "errors-rise-with-disconnected-clients",
        "Figure 8d: the overall error rate climbs slowly as more "
        "clients disconnect.  16 h keeps the disconnected fraction "
        "near the paper's geometry; shorter horizons make V=9 remove "
        "most of the writer pool and the shape inverts.",
        get_scenario("exp6-client-counts"),
        {},
        errors_rise_with_disconnected_clients,
        {BENCH: Tier(16.0), FULL: Tier(96.0)},
        threshold=0.01,
    ),
)}
