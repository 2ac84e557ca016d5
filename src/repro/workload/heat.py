"""Object heat distributions (the paper's second experimental dimension).

* **SH** — skewed heat: an 80/20 rule; 20% of objects are hot and draw
  80% of the accesses.  Each client gets its *own* randomly picked hot
  set ("we ensure that the hot objects of each client are not
  identical").
* **CSH** — changing skewed heat: the hot set is re-picked after every
  ``change_every`` queries of the client.
* **Cyclic** — the LRU-k-style pattern of Experiment #4's second half: a
  fixed hot set plus a sequential scan cycling over the whole database,
  so previously referenced items return after a fixed period.  LRU's
  weakness and LRU-k's strength on this pattern are exactly what the
  paper's Figure 6 shows.
* **Uniform** — no skew at all (extension baseline).

The Experiment #8 tournament adds three modern stress patterns:

* **Scan** — SH punctuated by full-query sequential scan bursts: every
  ``scan_every``-th query walks the database in OID order.  One-shot
  scan items reward admission filtering (W-TinyLFU's window) and punish
  pure recency.
* **Zipf** — the standard caching benchmark skew: object popularity
  follows a Zipf law over a per-client random ranking, giving a long
  tail instead of SH's two flat buckets.
* **Shifting hotspot** — a *contiguous* hot window over the OID space
  that slides by half its width every ``shift_every`` queries.  Unlike
  CSH's random re-pick, locality drifts gradually, so policies with
  frequency aging track it while all-time frequency counts lag.

Every distribution takes its population **in OID order**, the order
:meth:`repro.oodb.database.Database.oids` returns: the scans walk
it, and the hot bucket and the cold draws keep it.  A tuple is held as
is, so a fleet whose clients all pass the database's shared listing
holds one sequence, sorted once, instead of one sorted copy per client.
A client holds its hot bucket but no cold one: a cold draw reads the
complement through a map of the hot positions, so per-client state
grows with the hot set, not with the database.

All seven share one skeleton: :class:`HeatDistribution` holds the
population, the random stream, the scan cursor and the hot set, and
every randomized pick goes through :func:`_pick_distinct`, fed by one
of three draws (the hot/cold coin, the Zipf rank, Cyclic's hot pick).
"""

from __future__ import annotations

import abc
import functools
import operator
import typing as t
from array import array
from bisect import bisect_right

from repro.errors import ConfigurationError
from repro.oodb.objects import OID
from repro.sim.rand import RandomStream, cumulative

_T = t.TypeVar("_T")


def _hot_count(hot_fraction: float, n: int) -> int:
    """Size of a ``hot_fraction`` hot set among ``n`` objects.

    At least one object is hot and at least one stays cold: a cold draw
    from an empty bucket has nothing to pick.
    """
    if 0.0 < hot_fraction < 1.0:
        hot_count = max(1, round(hot_fraction * n))
        if hot_count < n:
            return hot_count
    raise ConfigurationError(
        f"hot_fraction must lie in (0, 1) and leave a cold object among "
        f"{n}, got {hot_fraction!r}"
    )


def _pick_distinct(
    draw: t.Callable[[], _T],
    population: t.Iterable[_T],
    count: int,
    picks: list[_T],
    chosen: set[_T],
) -> list[_T]:
    """Extend ``picks`` with ``draw()`` results until it holds ``count``
    distinct values; ``chosen`` is the set of what ``picks`` holds.

    After ``50 * count`` draws, degenerate configurations (tiny
    buckets, extreme skew) finish deterministically with the unchosen
    objects in ``population`` order instead of redrawing forever.
    """
    attempts = 0
    while len(picks) < count:
        attempts += 1
        if attempts > 50 * count:
            remaining = [o for o in population if o not in chosen]
            picks.extend(remaining[: count - len(picks)])
            break
        candidate = draw()
        if candidate not in chosen:
            chosen.add(candidate)
            picks.append(candidate)
    return picks


class HeatDistribution(abc.ABC):
    """Selects the distinct objects a query touches."""

    def __init__(self, oids: t.Sequence[OID], rng: RandomStream) -> None:
        self._oids = tuple(oids)
        if len(self._oids) < 2:
            raise ConfigurationError("need at least two objects")
        self._rng = rng
        self._cursor = 0
        self._hot: t.Sequence[OID] = ()
        #: The cold bucket's complement map: ``_shift[m]`` is the
        #: number of cold objects before the ``m``-th hot one.
        self._shift = array("I")

    @property
    def hot_set(self) -> frozenset[OID]:
        return frozenset(self._hot)

    def select_objects(self, query_index: int, count: int) -> list[OID]:
        """Pick ``count`` distinct OIDs for the client's ``query_index``-th
        query."""
        if count > len(self._oids):
            raise ConfigurationError(
                f"cannot select {count} of {len(self._oids)} objects"
            )
        return self._select(query_index, count)

    @abc.abstractmethod
    def _select(self, query_index: int, count: int) -> list[OID]:
        """:meth:`select_objects` once ``count`` is known to fit."""

    def describe(self) -> str:
        return type(self).__name__

    def _sample_hot_set(self, hot_fraction: float) -> None:
        """Draw a random hot set.

        ``random.sample`` reads only ``len()`` of its population, so
        sampling positions draws exactly the objects sampling the OIDs
        would.
        """
        n = len(self._oids)
        self._place_hot_set(
            sorted(self._rng.sample(range(n), _hot_count(hot_fraction, n)))
        )

    def _place_hot_set(self, positions: t.Sequence[int]) -> None:
        """Make the objects at the ascending ``positions`` hot.

        The hot bucket keeps OID order.  The cold bucket is never built:
        with ``shift[m] = positions[m] - m``, the ``i``-th cold object
        (in OID order) sits at ``i + bisect_right(shift, i)``, because
        a hot object lies before it exactly when fewer than ``i + 1``
        cold objects lie before that hot one.
        """
        oids = self._oids
        self._hot = [oids[p] for p in positions]
        self._shift = array(
            "I", map(operator.sub, positions, range(len(positions)))
        )

    def _scan(self, quota: int) -> list[OID]:
        """The next ``quota`` (at most all) objects in OID order from the
        cursor, wrapping around."""
        oids = self._oids
        start = self._cursor
        end = start + quota
        wrapped = max(0, end - len(oids))
        self._cursor = end % len(oids)
        return list(oids[start:end] + oids[:wrapped])


class UniformHeat(HeatDistribution):
    """Every object equally likely."""

    def _select(self, query_index: int, count: int) -> list[OID]:
        return self._rng.sample(self._oids, count)


class SkewedHeat(HeatDistribution):
    """The 80/20 rule with a per-client hot set."""

    def __init__(
        self,
        oids: t.Sequence[OID],
        rng: RandomStream,
        hot_fraction: float = 0.2,
        hot_access_probability: float = 0.8,
    ) -> None:
        super().__init__(oids, rng)
        if not 0.0 <= hot_access_probability <= 1.0:
            raise ConfigurationError(
                f"hot access probability out of range: "
                f"{hot_access_probability!r}"
            )
        self.hot_fraction = hot_fraction
        self.hot_access_probability = hot_access_probability
        self.reselect_hot_set()

    def reselect_hot_set(self) -> None:
        """Pick a fresh random hot set (used directly by CSH)."""
        self._sample_hot_set(self.hot_fraction)

    def _select(self, query_index: int, count: int) -> list[OID]:
        # The probability was validated once, so each coin is a bare
        # ``random() < p``.  A cold draw picks a cold index with the
        # ``_randbelow(n - k)`` call ``choice`` on a cold bucket made.
        random = self._rng.raw_random
        choice = self._rng.choice
        oids = self._oids
        hot = self._hot
        shift = self._shift
        cold = range(len(oids) - len(hot))
        p = self.hot_access_probability
        return _pick_distinct(
            lambda: (
                choice(hot)
                if random() < p
                else oids[(i := choice(cold)) + bisect_right(shift, i)]
            ),
            oids,
            count,
            [],
            set(),
        )

    def describe(self) -> str:
        return "SH"


class ChangingSkewedHeat(SkewedHeat):
    """SH whose hot set is re-picked every ``change_every`` queries."""

    def __init__(
        self,
        oids: t.Sequence[OID],
        rng: RandomStream,
        change_every: int = 500,
        hot_fraction: float = 0.2,
        hot_access_probability: float = 0.8,
    ) -> None:
        if change_every < 1:
            raise ConfigurationError(
                f"change interval must be >= 1, got {change_every!r}"
            )
        self.change_every = int(change_every)
        self._era = 0
        super().__init__(oids, rng, hot_fraction, hot_access_probability)

    def _select(self, query_index: int, count: int) -> list[OID]:
        era = query_index // self.change_every
        if era != self._era:
            self._era = era
            self.reselect_hot_set()
        return super()._select(query_index, count)

    def describe(self) -> str:
        return f"CSH-{self.change_every}"


class SequentialScanHeat(SkewedHeat):
    """SH punctuated by periodic whole-query sequential scans.

    Query indices divisible by ``scan_every`` take *all* their picks
    from a cursor walking the database in OID order (wrapping around);
    every other query samples the per-client hot set like SH.  The scan
    items are one-shot on cache timescales — the pattern scan-resistant
    policies are built for.
    """

    def __init__(
        self,
        oids: t.Sequence[OID],
        rng: RandomStream,
        scan_every: int = 5,
        hot_fraction: float = 0.2,
        hot_access_probability: float = 0.8,
    ) -> None:
        if scan_every < 1:
            raise ConfigurationError(
                f"scan interval must be >= 1, got {scan_every!r}"
            )
        self.scan_every = int(scan_every)
        super().__init__(oids, rng, hot_fraction, hot_access_probability)

    def _select(self, query_index: int, count: int) -> list[OID]:
        if query_index % self.scan_every:
            return super()._select(query_index, count)
        return self._scan(count)

    def describe(self) -> str:
        return f"scan-{self.scan_every}"


@functools.lru_cache(maxsize=8)
def _zipf_weights(n: int, s: float) -> tuple[float, ...]:
    """Cumulative Zipf weights ``r**-s`` of ranks 1..``n``, built once
    per ``(n, s)`` and shared by every client of a fleet."""
    return tuple(cumulative(rank ** -s for rank in range(1, n + 1)))


class ZipfHeat(HeatDistribution):
    """Zipf-distributed popularity over a per-client object ranking.

    Object at popularity rank ``r`` (1-based) is drawn with weight
    ``r**-s``; each client ranks the population in its own random
    order, mirroring SH's per-client hot sets.  ``s`` around 1 is the
    classic web/caching skew — a long tail instead of SH's two flat
    buckets.
    """

    def __init__(
        self,
        oids: t.Sequence[OID],
        rng: RandomStream,
        s: float = 0.99,
    ) -> None:
        if not s > 0.0:
            raise ConfigurationError(
                f"zipf exponent must be positive, got {s!r}"
            )
        super().__init__(oids, rng)
        self.s = float(s)
        #: This client's popularity ranking: a seeded permutation.
        self._ranked = rng.sample(self._oids, len(self._oids))
        self._draw_rank = functools.partial(
            rng.weighted_index, _zipf_weights(len(self._oids), self.s)
        )

    def _select(self, query_index: int, count: int) -> list[OID]:
        # Picks are drawn as ranks (0 = most popular): the ranking is a
        # permutation, so distinct ranks are distinct objects, and the
        # fallback takes the unchosen ranks head first.
        ranked = self._ranked
        ranks = _pick_distinct(
            self._draw_rank, range(len(ranked)), count, [], set()
        )
        return [ranked[rank] for rank in ranks]

    def describe(self) -> str:
        return f"zipf-{self.s:g}"


class ShiftingHotspotHeat(SkewedHeat):
    """A contiguous hot window drifting across the OID space.

    The hot set is ``hot_fraction`` of the population, *contiguous* in
    OID order, starting at a per-client random offset; every
    ``shift_every`` queries it slides forward by half its width
    (wrapping), so successive hot sets overlap.  Gradual drift is the
    pattern frequency-*aging* policies handle and all-time frequency
    counts do not — the complement to CSH's abrupt random re-pick.
    """

    def __init__(
        self,
        oids: t.Sequence[OID],
        rng: RandomStream,
        shift_every: int = 500,
        hot_fraction: float = 0.2,
        hot_access_probability: float = 0.8,
    ) -> None:
        if shift_every < 1:
            raise ConfigurationError(
                f"shift interval must be >= 1, got {shift_every!r}"
            )
        self.shift_every = int(shift_every)
        self._era = 0
        #: Where era 0's window starts; drawn by the first reselection.
        self._origin: int | None = None
        super().__init__(oids, rng, hot_fraction, hot_access_probability)

    def reselect_hot_set(self) -> None:
        """Place the window for the current era: it has slid half its
        width once per era boundary crossed, so very long gaps between
        queries do not teleport the hotspot."""
        n = len(self._oids)
        width = _hot_count(self.hot_fraction, n)
        if self._origin is None:
            self._origin = self._rng.randint(0, n - 1)
        start = (self._origin + max(1, width // 2) * self._era) % n
        end = start + width
        wrapped = max(0, end - n)
        self._place_hot_set([*range(wrapped), *range(start, min(end, n))])

    def _select(self, query_index: int, count: int) -> list[OID]:
        era = query_index // self.shift_every
        if era != self._era:
            self._era = era
            self.reselect_hot_set()
        return super()._select(query_index, count)

    def describe(self) -> str:
        return f"hotspot-{self.shift_every}"


class CyclicHeat(HeatDistribution):
    """Hot set plus a cyclic sequential scan (the LRU-k stress pattern).

    A ``scan_fraction`` of each query's picks walk the database in OID
    order, wrapping around; the rest come from a fixed hot set.  Scanned
    items recur after exactly one full cycle, so policies that react to
    a single recent touch (LRU) churn, while history-based ones (LRU-k,
    EWMA) hold the hot set.
    """

    def __init__(
        self,
        oids: t.Sequence[OID],
        rng: RandomStream,
        hot_fraction: float = 0.2,
        scan_fraction: float = 0.3,
    ) -> None:
        if not 0.0 <= scan_fraction <= 1.0:
            raise ConfigurationError(
                f"scan fraction out of range: {scan_fraction!r}"
            )
        super().__init__(oids, rng)
        self.scan_fraction = scan_fraction
        self._sample_hot_set(hot_fraction)
        self._draw_hot = functools.partial(rng.choice, self._hot)

    def _select(self, query_index: int, count: int) -> list[OID]:
        picks = self._scan(round(self.scan_fraction * count))
        # A hot set smaller than the query's hot picks falls back to the
        # unchosen objects in OID order.
        return _pick_distinct(
            self._draw_hot, self._oids, count, picks, set(picks)
        )

    def describe(self) -> str:
        return "cyclic"
