"""Seeded random streams for reproducible simulations.

Each stochastic component of the model (arrivals, heat, updates, ...)
draws from its own :class:`RandomStream`, derived deterministically from
a single experiment seed.  Changing one component therefore never
perturbs the draws of another — the classic "common random numbers"
variance-reduction discipline for simulation comparisons.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
import typing as t
from collections.abc import Sequence


def _derive_seed(seed: int, label: str) -> int:
    """Derive a child seed from (seed, label), stable across runs/platforms."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def spawn_seed(base_seed: int, run_key: "int | str") -> int:
    """Derive a decorrelated per-run seed from ``(base_seed, run_key)``.

    This is the spawn scheme the parallel experiment executor relies on:
    every run of a sweep derives its own root seed from the sweep's base
    seed plus a key identifying the run.  The derivation is a pure
    function of its two arguments — same platform, same process, same
    worker, same completion order or not, the seed is the same — so a
    sweep's results are bit-identical no matter how its runs are
    scheduled.  Keys may be integers (run indices) or strings (stable
    content keys); a given key always maps to the same stream, so
    reordering a run list keyed by content never changes any run's
    stream.

    The ``spawn:`` domain prefix keeps spawned seeds disjoint from the
    :meth:`RandomStream.fork` label derivation, so a run's root stream
    can never collide with one of its own component streams.
    """
    digest = hashlib.sha256(
        f"spawn:{base_seed}:{run_key}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def replication_seed(base_seed: int, replication: int) -> int:
    """Derive the root seed of replication ``replication`` of a scenario.

    A thin, documented layer over :func:`spawn_seed`: every replication
    of a scenario sweep derives one root seed from the scenario's base
    seed plus the replication index.  All experiment cells of one
    replication share that seed — the *common random numbers* discipline
    that pairs cells for low-variance comparisons — while distinct
    replications draw decorrelated streams.

    The ``rep`` key namespace keeps replication seeds disjoint from any
    content-keyed ``field=value|...`` scheme (which cannot equal
    ``rep:<n>``), and the ``spawn:`` domain prefix inherited from
    :func:`spawn_seed` keeps them disjoint from every
    :meth:`RandomStream.fork` label derivation.
    """
    if replication < 0:
        raise ValueError(
            f"replication index must be >= 0, got {replication!r}"
        )
    return spawn_seed(base_seed, f"rep:{replication}")


class RandomStream:
    """A named, independently-seeded source of random variates."""

    def __init__(self, seed: int, label: str = "root") -> None:
        self.seed = seed
        self.label = label
        self._rng = random.Random(_derive_seed(seed, label))

    def __repr__(self) -> str:
        return f"<RandomStream {self.label!r} seed={self.seed}>"

    def fork(self, label: str) -> "RandomStream":
        """Create an independent child stream named ``label``."""
        return RandomStream(self.seed, f"{self.label}/{label}")

    def spawn(self, run_key: "int | str") -> "RandomStream":
        """Create a stream under a *new* seed derived via :func:`spawn_seed`.

        Unlike :meth:`fork` — which varies only the label under the same
        seed, for decorrelating components *within* one run — ``spawn``
        derives an entirely new root seed, for decorrelating *runs*
        within a sweep.
        """
        return RandomStream(spawn_seed(self.seed, run_key), label=self.label)

    # ------------------------------------------------------------------
    # Variates
    # ------------------------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform real on ``[low, high)``."""
        return self._rng.uniform(low, high)

    def random(self) -> float:
        """Uniform real on ``[0, 1)``."""
        return self._rng.random()

    @property
    def raw_random(self) -> t.Callable[[], float]:
        """The generator's own ``random``, bound.

        Calling it draws exactly what :meth:`random` draws, without the
        Python frame in between; a hot loop binds it once per call.
        """
        return self._rng.random

    @property
    def raw_getrandbits(self) -> t.Callable[[int], int]:
        """The generator's own ``getrandbits``, bound.

        ``randint`` and ``choice`` reduce to draws of it (see
        ``random.Random._randbelow``); a loop that repeats that
        reduction calls it without the Python frames in between.
        """
        return self._rng.getrandbits

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given *mean* (not rate)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        return self._rng.expovariate(1.0 / mean)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer on ``[low, high]`` inclusive."""
        return self._rng.randint(low, high)

    def bernoulli(self, probability: float) -> bool:
        """``True`` with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of range: {probability!r}")
        return self._rng.random() < probability

    def choice(self, population: t.Sequence[t.Any]) -> t.Any:
        """Uniformly pick one element."""
        return self._rng.choice(population)

    def sample(self, population: t.Sequence[t.Any], k: int) -> list[t.Any]:
        """Pick ``k`` distinct elements uniformly without replacement.

        The picks, the generator's state afterwards and the errors are
        those of ``random.Random.sample``.  Both of its branches run
        here, with ``Random._randbelow``'s loop (draw
        ``getrandbits(m.bit_length())`` until below ``m``) written out
        on the bound ``getrandbits``: a pool of the population, whose
        ``i``-th pick draws below ``n - i`` and moves the pool's last
        live element into the gap, or, once ``n`` outgrows a ``k``-sized
        set, positions drawn below ``n`` until one is new.  A
        population that is not a sequence, or a ``k`` that is not an
        int in ``[0, n]``, goes to the library call, which raises.
        """
        n = len(population) if isinstance(population, Sequence) else -1
        if not (isinstance(k, int) and 0 <= k <= n):
            return self._rng.sample(population, k)
        getrandbits = self._rng.getrandbits
        # The library's size rule: a small set's size minus an empty
        # list's, plus a big set's table size.
        setsize = 21
        if k > 5:
            setsize += 4 ** math.ceil(math.log(k * 3, 4))
        result: list[t.Any] = []
        if n <= setsize:
            pool = list(population)
            for m in range(n, n - k, -1):
                bits = m.bit_length()
                j = getrandbits(bits)
                while j >= m:
                    j = getrandbits(bits)
                result.append(pool[j])
                pool[j] = pool[m - 1]
        else:
            bits = n.bit_length()
            selected: set[int] = set()
            for __ in range(k):
                j = getrandbits(bits)
                while j >= n or j in selected:
                    j = getrandbits(bits)
                selected.add(j)
                result.append(population[j])
        return result

    def shuffle(self, items: list[t.Any]) -> None:
        """Shuffle ``items`` in place."""
        self._rng.shuffle(items)

    def weighted_index(self, cumulative_weights: t.Sequence[float]) -> int:
        """Pick an index given *cumulative* weights summing to the last entry.

        One ``random()`` draw scaled by the total, then a binary search
        in C for the first index whose cumulative weight exceeds it, so
        repeated draws from a fixed distribution (the attribute-popularity
        skew, a zipf ranking) stay cheap.  When no weight exceeds the
        target (every weight zero) the clamp returns the last index.
        """
        if not cumulative_weights:
            raise ValueError("empty weight vector")
        target = self._rng.random() * cumulative_weights[-1]
        return min(
            bisect.bisect_right(cumulative_weights, target),
            len(cumulative_weights) - 1,
        )

    def normal(self, mean: float, std: float) -> float:
        """Gaussian variate."""
        return self._rng.gauss(mean, std)


def cumulative(weights: t.Iterable[float]) -> list[float]:
    """Prefix-sum a weight vector for :meth:`RandomStream.weighted_index`."""
    out: list[float] = []
    total = 0.0
    for weight in weights:
        if weight < 0:
            raise ValueError(f"negative weight: {weight!r}")
        total += weight
        out.append(total)
    if not out or out[-1] <= 0:
        raise ValueError("weights must contain at least one positive entry")
    return out
