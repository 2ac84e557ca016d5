"""The one statistics module: tallies, bucketed series and t intervals.

The paper judges every design by three statistics — hit ratio, response
time and error rate — and everything that computes them lives here.
The module is pure Python and deterministic: Student-t critical values
come from the regularized incomplete beta function (a Lentz continued
fraction) plus bisection, so statistics add no dependency beyond
:mod:`math` and produce bit-identical numbers on every platform.

* :class:`Tally` is Welford's online mean and variance over independent
  observations (response times, write inter-arrival gaps).
* :class:`BucketedSeries` keeps a (count, sum) pair per fixed-width
  time bucket.  A ratio is the mean of 0/1 values, so one type serves
  the hit ratio, the error rate, response times and uplink bytes, both
  whole-run and inside a measurement window.
* **Warm-up truncation** discards the initial transient — caches start
  cold, so early samples depress hit ratios and inflate response times.
  The window is a fixed fraction of the horizon; a window that leaves
  no measurable residue is an error (:class:`StatisticsError`), never a
  silent NaN.
* **Replication-level intervals** treat each independent replication's
  post-warm-up metric as one i.i.d. sample; with ``n`` replications the
  half-width uses the t distribution with ``n - 1`` degrees of freedom.
  A single replication yields a degenerate interval (half-width 0.0) —
  honest for single-run tables, and it keeps the envelope schema
  uniform.
"""

from __future__ import annotations

import dataclasses
import math
import typing as t

from repro._units import Ratio, Seconds
from repro.errors import StatisticsError

# -- Student-t critical values (no scipy) ------------------------------

_BETACF_MAX_ITERATIONS = 200
_BETACF_EPSILON = 3e-12
_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta (Lentz's method)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITERATIONS + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPSILON:
            return h
    raise StatisticsError(
        f"incomplete beta failed to converge for a={a!r} b={b!r} x={x!r}"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(log_front)
    # The continued fraction converges fast only on one side of the
    # mean; use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) otherwise.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(x: float, df: int) -> float:
    """P(T <= x) for Student's t with ``df`` degrees of freedom."""
    if df < 1:
        raise StatisticsError(
            f"t distribution needs df >= 1, got {df!r}"
        )
    if x == 0.0:
        return 0.5
    tail = 0.5 * regularized_incomplete_beta(
        df / 2.0, 0.5, df / (df + x * x)
    )
    return 1.0 - tail if x > 0 else tail


def check_confidence(confidence: float) -> None:
    """Reject a confidence level outside the open interval (0, 1)."""
    if not 0.0 < confidence < 1.0:
        raise StatisticsError(
            f"confidence must lie in (0, 1), got {confidence!r}"
        )


def t_critical(df: int, confidence: float = 0.95) -> float:
    """Two-sided critical value: P(|T| <= t*) = ``confidence``.

    Solved by bisection on the CDF — ~50 iterations pin the value to
    ~1e-12, far below any reporting precision, and the whole path is
    deterministic.
    """
    check_confidence(confidence)
    target = 1.0 - (1.0 - confidence) / 2.0
    lo, hi = 0.0, 1.0
    while t_cdf(hi, df) < target:
        hi *= 2.0
        if hi > 1e12:
            raise StatisticsError(
                f"t critical value diverged for df={df!r} "
                f"confidence={confidence!r}"
            )
    for __ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def _half_width(n: int, std: float, confidence: float) -> float:
    """t-based confidence half-width of a mean over ``n`` samples.

    Fewer than two samples carry no variance estimate: the interval is
    degenerate (zero width).
    """
    if n < 2:
        return 0.0
    return t_critical(n - 1, confidence) * std / math.sqrt(n)


# -- collectors --------------------------------------------------------


class Tally:
    """Online count / mean / variance over independent observations.

    Welford's algorithm keeps the mean and standard deviation
    numerically stable over millions of samples.
    """

    # One tally per written key (``WriteIntervalStats``): slots keep each
    # a fixed-size block with no per-instance dict.
    __slots__ = ("name", "_count", "_mean", "_m2")

    def __init__(self, name: str = "tally") -> None:
        self.name = name
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def __repr__(self) -> str:
        return f"<Tally {self.name!r} n={self._count} mean={self.mean:.6g}>"

    def record(self, value: float) -> None:
        """Add one observation."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty, so reports stay printable)."""
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def confidence_interval(
        self, level: float = 0.95
    ) -> tuple[float, float]:
        """Student-t confidence interval for the mean.

        Raises :class:`~repro.errors.StatisticsError` for a level
        outside (0, 1); fewer than two observations yield a degenerate
        (zero-width) interval.
        """
        check_confidence(level)
        half = _half_width(self._count, self.std, level)
        return (self.mean - half, self.mean + half)

    def merge(self, other: "Tally") -> None:
        """Fold another tally into this one (parallel-run aggregation)."""
        if other._count == 0:
            return
        if self._count == 0:
            self._count = other._count
            self._mean = other._mean
            self._m2 = other._m2
            return
        n1, n2 = self._count, other._count
        delta = other._mean - self._mean
        total = n1 + n2
        self._mean += delta * n2 / total
        self._m2 += other._m2 + delta * delta * n1 * n2 / total
        self._count = total


class BucketedSeries:
    """Per-time-bucket (count, sum) of one metric.

    Record 0/1 values and every mean is a ratio (hit ratio, error
    rate); record seconds or bytes and it is a mean or a total.  A
    window ``[start, end)`` selects buckets by their *start* time, so
    a window and the sample counts it reports always agree.  Integer
    sums below 2**53 are exact as floats, so a 0/1 series' mean is the
    same correctly rounded quotient as ``hits / total``.
    """

    def __init__(self, bucket_seconds: Seconds, name: str = "series") -> None:
        if bucket_seconds <= 0:
            raise ValueError(
                f"bucket width must be positive, got {bucket_seconds!r}"
            )
        self.bucket_seconds = float(bucket_seconds)
        self.name = name
        self._counts: dict[int, int] = {}
        self._sums: dict[int, float] = {}

    def __repr__(self) -> str:
        return (
            f"<BucketedSeries {self.name!r} n={self.count} "
            f"mean={self.mean:.6g} width={self.bucket_seconds:g}s>"
        )

    def record(self, now: Seconds, value: float) -> None:
        if now < 0:
            raise ValueError(f"negative sample time: {now!r}")
        bucket = int(now // self.bucket_seconds)
        counts = self._counts
        if bucket in counts:
            counts[bucket] += 1
            self._sums[bucket] += value
        else:
            # ``0.0 + value``, as a ``get(bucket, 0.0)`` default would
            # add, so a bucket's sum is a float bit for bit even when
            # the first sample is a bool or an int.
            counts[bucket] = 1
            self._sums[bucket] = 0.0 + value

    def record_batch(self, now: Seconds, count: int, total: int) -> None:
        """Add ``count`` samples at ``now`` whose values sum to ``total``.

        For 0/1 samples this equals ``count`` calls of :meth:`record`
        bit for bit: every partial sum is an integer below 2**53, so
        each float addition is exact.  A batch of no samples creates no
        bucket, as no :meth:`record` call would.
        """
        if not count:
            return
        if now < 0:
            raise ValueError(f"negative sample time: {now!r}")
        bucket = int(now // self.bucket_seconds)
        counts = self._counts
        if bucket in counts:
            counts[bucket] += count
            self._sums[bucket] += total
        else:
            counts[bucket] = count
            self._sums[bucket] = 0.0 + total

    # -- whole run -----------------------------------------------------
    @property
    def count(self) -> int:
        return sum(self._counts.values())

    @property
    def sum(self) -> float:
        return sum(self._sums.values())

    @property
    def mean(self) -> float:
        """Mean of every sample (0.0 when empty)."""
        count = self.count
        return self.sum / count if count else 0.0

    # -- windows -------------------------------------------------------
    def samples_between(self, start: Seconds, end: Seconds) -> int:
        """Sample count over [start, end), by bucket start time.

        A caller checks this denominator before asking for a windowed
        mean: warm-up truncation must error out on an empty window,
        never divide by it.
        """
        return sum(
            count
            for bucket, count in self._counts.items()
            if start <= bucket * self.bucket_seconds < end
        )

    def sum_between(self, start: Seconds, end: Seconds) -> float:
        """Total of all values recorded in [start, end)."""
        return sum(
            total
            for bucket, total in self._sums.items()
            if start <= bucket * self.bucket_seconds < end
        )

    def mean_between(self, start: Seconds, end: Seconds) -> float:
        """Mean value over [start, end) (0.0 if no samples)."""
        count = self.samples_between(start, end)
        return self.sum_between(start, end) / count if count else 0.0

    def series(self) -> list[tuple[float, float, int]]:
        """(bucket start time, mean value, sample count) per bucket."""
        return [
            (
                bucket * self.bucket_seconds,
                self._sums[bucket] / self._counts[bucket],
                self._counts[bucket],
            )
            for bucket in sorted(self._counts)
        ]

    def merge(self, other: "BucketedSeries") -> None:
        """Fold another series (same bucket width) into this one."""
        if other.bucket_seconds != self.bucket_seconds:
            raise ValueError(
                f"cannot merge series with different bucket widths: "
                f"{self.bucket_seconds:g}s vs {other.bucket_seconds:g}s"
            )
        for bucket, count in other._counts.items():
            self._counts[bucket] = self._counts.get(bucket, 0) + count
        for bucket, total in other._sums.items():
            self._sums[bucket] = self._sums.get(bucket, 0.0) + total

    def sparkline(self, width: int = 60) -> str:
        """A terminal sparkline of a 0/1 series' ratio over time."""
        points = self.series()
        if not points:
            return ""
        blocks = " ▁▂▃▄▅▆▇█"
        if len(points) > width:
            # Downsample by averaging consecutive groups.
            group = len(points) / width
            sampled = []
            for index in range(width):
                chunk = points[
                    int(index * group):max(
                        int((index + 1) * group), int(index * group) + 1
                    )
                ]
                sampled.append(sum(p[1] for p in chunk) / len(chunk))
        else:
            sampled = [ratio for __, ratio, __ in points]
        return "".join(
            blocks[min(int(ratio * (len(blocks) - 1)), len(blocks) - 2) + 1]
            if ratio > 0 else blocks[0]
            for ratio in sampled
        )


# -- warm-up truncation and replication intervals ----------------------


def warmup_window(
    horizon_seconds: Seconds, warmup_fraction: Ratio
) -> tuple[Seconds, Seconds]:
    """The measurement window ``[start, end)`` after warm-up truncation.

    Raises :class:`StatisticsError` for a horizon that is not a
    positive finite number, and when the warm-up swallows the whole
    horizon — there would be nothing left to measure, and reporting a
    0/0 ratio as 0.0 would silently fabricate a result.
    """
    if not (math.isfinite(horizon_seconds) and horizon_seconds > 0.0):
        raise StatisticsError(
            f"horizon must be positive and finite, got {horizon_seconds!r}"
        )
    if not 0.0 <= warmup_fraction < 1.0:
        raise StatisticsError(
            f"warm-up fraction must lie in [0, 1): a warm-up of "
            f"{warmup_fraction!r} leaves no measurement window"
        )
    return warmup_fraction * horizon_seconds, horizon_seconds


@dataclasses.dataclass(frozen=True)
class MetricStats:
    """Mean and confidence half-width of one metric across samples."""

    mean: float
    half_width: float
    n: int
    std: float
    confidence: float

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def formatted(self, precision: int = 4) -> str:
        return (
            f"{self.mean:.{precision}f} ± {self.half_width:.{precision}f}"
        )


def replication_ci(
    samples: t.Sequence[float], confidence: float = 0.95
) -> MetricStats:
    """Mean ± t-based half-width over independent replications.

    One sample yields a degenerate (zero-width) interval; zero samples
    raise — the caller has no data, and pretending otherwise would
    poison every downstream aggregate.
    """
    n = len(samples)
    if n == 0:
        raise StatisticsError(
            "confidence interval requested over zero replications"
        )
    mean = math.fsum(samples) / n
    std = (
        math.sqrt(math.fsum((x - mean) ** 2 for x in samples) / (n - 1))
        if n > 1
        else 0.0
    )
    return MetricStats(
        mean=mean,
        half_width=_half_width(n, std, confidence),
        n=n,
        std=std,
        confidence=confidence,
    )
