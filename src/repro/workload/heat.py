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
it, and the hot and cold buckets keep it.  A tuple is held as is, so a
fleet whose clients all pass the database's shared listing holds one
sequence, sorted once, instead of one sorted copy per client.
"""

from __future__ import annotations

import abc
import itertools
import typing as t

from repro.errors import ConfigurationError
from repro.oodb.objects import OID
from repro.sim.rand import RandomStream


def _check_skew(hot_fraction: float, hot_access_probability: float) -> None:
    if not 0.0 < hot_fraction < 1.0:
        raise ConfigurationError(
            f"hot fraction must lie in (0, 1), got {hot_fraction!r}"
        )
    if not 0.0 <= hot_access_probability <= 1.0:
        raise ConfigurationError(
            f"hot access probability out of range: "
            f"{hot_access_probability!r}"
        )


def _draw_hot_cold(
    rng: RandomStream,
    population: t.Sequence[OID],
    hot: t.Sequence[OID],
    cold: t.Sequence[OID],
    hot_access_probability: float,
    count: int,
) -> list[OID]:
    """Pick ``count`` distinct OIDs, each from ``hot`` with probability
    ``hot_access_probability`` and from ``cold`` otherwise.

    The probability was validated once, by ``_check_skew``, so each
    coin is a bare ``random() < p``.  ``choice(bucket)`` makes the one
    ``_randbelow(len(bucket))`` call that ``bucket[randint(0, n - 1)]``
    makes.
    """
    chosen: set[OID] = set()
    picks: list[OID] = []
    random = rng.random
    choice = rng.choice
    attempts = 0
    while len(picks) < count:
        attempts += 1
        if attempts > 50 * count:
            # Degenerate configurations (tiny buckets, extreme skew)
            # could loop forever on rejections; finish deterministically
            # with whatever objects remain.
            remaining = [o for o in population if o not in chosen]
            picks.extend(remaining[: count - len(picks)])
            break
        if random() < hot_access_probability:
            bucket = hot
        else:
            bucket = cold
        candidate = choice(bucket)
        if candidate not in chosen:
            chosen.add(candidate)
            picks.append(candidate)
    return picks


class HeatDistribution(abc.ABC):
    """Selects the distinct objects a query touches."""

    @abc.abstractmethod
    def select_objects(self, query_index: int, count: int) -> list[OID]:
        """Pick ``count`` distinct OIDs for the client's ``query_index``-th
        query."""

    def describe(self) -> str:
        return type(self).__name__


class UniformHeat(HeatDistribution):
    """Every object equally likely."""

    def __init__(self, oids: t.Sequence[OID], rng: RandomStream) -> None:
        if not oids:
            raise ConfigurationError("empty object population")
        self._oids = tuple(oids)
        self._rng = rng

    def select_objects(self, query_index: int, count: int) -> list[OID]:
        if count > len(self._oids):
            raise ConfigurationError(
                f"cannot select {count} of {len(self._oids)} objects"
            )
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
        _check_skew(hot_fraction, hot_access_probability)
        self._oids = tuple(oids)
        if len(self._oids) < 2:
            raise ConfigurationError("need at least two objects")
        self._rng = rng
        self.hot_fraction = hot_fraction
        self.hot_access_probability = hot_access_probability
        self._hot: list[OID] = []
        self._cold: list[OID] = []
        self.reselect_hot_set()

    @property
    def hot_set(self) -> frozenset[OID]:
        return frozenset(self._hot)

    def reselect_hot_set(self) -> None:
        """Pick a fresh random hot set (used directly by CSH)."""
        n = len(self._oids)
        hot_count = max(1, round(self.hot_fraction * n))
        # random.sample reads only len() of its population, so sampling
        # positions draws exactly the objects sampling the OIDs would.
        # Masks over those positions split the population into buckets
        # that keep OID order, with no per-OID hashing.
        hot_mask = bytearray(n)
        cold_mask = bytearray(b"\x01") * n
        for index in self._rng.sample(range(n), hot_count):
            hot_mask[index] = 1
            cold_mask[index] = 0
        self._hot = list(itertools.compress(self._oids, hot_mask))
        self._cold = list(itertools.compress(self._oids, cold_mask))

    def select_objects(self, query_index: int, count: int) -> list[OID]:
        if count > len(self._oids):
            raise ConfigurationError(
                f"cannot select {count} of {len(self._oids)} objects"
            )
        return _draw_hot_cold(
            self._rng,
            self._oids,
            self._hot,
            self._cold,
            self.hot_access_probability,
            count,
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

    def select_objects(self, query_index: int, count: int) -> list[OID]:
        era = query_index // self.change_every
        if era != self._era:
            self._era = era
            self.reselect_hot_set()
        return super().select_objects(query_index, count)

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
        self._cursor = 0
        super().__init__(oids, rng, hot_fraction, hot_access_probability)

    def select_objects(self, query_index: int, count: int) -> list[OID]:
        if query_index % self.scan_every != 0:
            return super().select_objects(query_index, count)
        if count > len(self._oids):
            raise ConfigurationError(
                f"cannot select {count} of {len(self._oids)} objects"
            )
        picks: list[OID] = []
        chosen: set[OID] = set()
        while len(picks) < count:
            candidate = self._oids[self._cursor]
            self._cursor = (self._cursor + 1) % len(self._oids)
            if candidate not in chosen:
                chosen.add(candidate)
                picks.append(candidate)
        return picks

    def describe(self) -> str:
        return f"scan-{self.scan_every}"


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
        population = tuple(oids)
        if len(population) < 2:
            raise ConfigurationError("need at least two objects")
        self.s = float(s)
        self._rng = rng
        #: This client's popularity ranking: a seeded permutation.
        self._ranked = rng.sample(population, len(population))
        cumulative: list[float] = []
        total = 0.0
        for rank in range(1, len(population) + 1):
            total += rank ** -self.s
            cumulative.append(total)
        self._cumulative = cumulative

    def select_objects(self, query_index: int, count: int) -> list[OID]:
        if count > len(self._ranked):
            raise ConfigurationError(
                f"cannot select {count} of {len(self._ranked)} objects"
            )
        chosen: set[OID] = set()
        picks: list[OID] = []
        ranked = self._ranked
        cumulative = self._cumulative
        weighted_index = self._rng.weighted_index
        attempts = 0
        while len(picks) < count:
            attempts += 1
            if attempts > 50 * count:
                # Same deterministic fallback as _draw_hot_cold: extreme
                # skew could reject forever on the handful of unchosen
                # head objects.
                remaining = [o for o in ranked if o not in chosen]
                picks.extend(remaining[: count - len(picks)])
                break
            candidate = ranked[weighted_index(cumulative)]
            if candidate not in chosen:
                chosen.add(candidate)
                picks.append(candidate)
        return picks

    def describe(self) -> str:
        return f"zipf-{self.s:g}"


class ShiftingHotspotHeat(HeatDistribution):
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
        _check_skew(hot_fraction, hot_access_probability)
        self._ordered = tuple(oids)
        if len(self._ordered) < 2:
            raise ConfigurationError("need at least two objects")
        self.shift_every = int(shift_every)
        self.hot_fraction = hot_fraction
        self.hot_access_probability = hot_access_probability
        self._hot_count = max(1, round(hot_fraction * len(self._ordered)))
        self._step = max(1, self._hot_count // 2)
        self._start = rng.randint(0, len(self._ordered) - 1)
        self._era = 0
        self._rng = rng
        self._hot: tuple[OID, ...] = ()
        self._cold: tuple[OID, ...] = ()
        self._rebuild_buckets()

    @property
    def hot_set(self) -> frozenset[OID]:
        return frozenset(self._hot)

    def _rebuild_buckets(self) -> None:
        # The hot window is positions start .. start+count-1, wrapping;
        # both buckets are slices of the population, kept in OID order.
        ordered = self._ordered
        start = self._start
        end = start + self._hot_count
        wrapped = end - len(ordered)
        if wrapped <= 0:
            self._hot = ordered[start:end]
            self._cold = ordered[:start] + ordered[end:]
        else:
            self._hot = ordered[:wrapped] + ordered[start:]
            self._cold = ordered[wrapped:start]

    def select_objects(self, query_index: int, count: int) -> list[OID]:
        if count > len(self._ordered):
            raise ConfigurationError(
                f"cannot select {count} of {len(self._ordered)} objects"
            )
        era = query_index // self.shift_every
        if era != self._era:
            # Slide once per boundary crossed, so very long gaps between
            # queries do not teleport the hotspot.
            self._start = (
                self._start + self._step * (era - self._era)
            ) % len(self._ordered)
            self._era = era
            self._rebuild_buckets()
        return _draw_hot_cold(
            self._rng,
            self._ordered,
            self._hot,
            self._cold,
            self.hot_access_probability,
            count,
        )

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
        self._all = tuple(oids)
        if len(self._all) < 2:
            raise ConfigurationError("need at least two objects")
        self._rng = rng
        n = len(self._all)
        hot_count = max(1, round(hot_fraction * n))
        # Same draws as sampling the OIDs (see SkewedHeat); sorting the
        # positions puts the hot set in OID order.
        self._hot = [
            self._all[index]
            for index in sorted(rng.sample(range(n), hot_count))
        ]
        self.scan_fraction = scan_fraction
        self._cursor = 0

    @property
    def hot_set(self) -> frozenset[OID]:
        return frozenset(self._hot)

    def select_objects(self, query_index: int, count: int) -> list[OID]:
        if count > len(self._all):
            raise ConfigurationError(
                f"cannot select {count} of {len(self._all)} objects"
            )
        scan_quota = round(self.scan_fraction * count)
        picks: list[OID] = []
        chosen: set[OID] = set()
        while len(picks) < scan_quota:
            candidate = self._all[self._cursor]
            self._cursor = (self._cursor + 1) % len(self._all)
            if candidate not in chosen:
                chosen.add(candidate)
                picks.append(candidate)
        attempts = 0
        while len(picks) < count:
            attempts += 1
            if attempts > 50 * count:
                # Same deterministic fallback as _draw_hot_cold: a hot
                # set smaller than the query's hot picks would redraw
                # forever.
                remaining = [o for o in self._all if o not in chosen]
                picks.extend(remaining[: count - len(picks)])
                break
            candidate = self._hot[
                self._rng.randint(0, len(self._hot) - 1)
            ]
            if candidate not in chosen:
                chosen.add(candidate)
                picks.append(candidate)
        return picks

    def describe(self) -> str:
        return "cyclic"
