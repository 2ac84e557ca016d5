"""Replication statistics: warm-up truncation and confidence intervals.

Everything here is pure Python and deterministic — Student-t critical
values come from the regularized incomplete beta function (a Lentz
continued fraction) plus bisection, so the statistics layer adds no
dependency beyond :mod:`math` and produces bit-identical numbers on
every platform.

Design choices (mirroring classic simulation-output analysis):

* **Warm-up truncation** discards the initial transient — caches start
  cold, so early samples depress hit ratios and inflate response times.
  The window is a fixed fraction of the horizon; a window that leaves
  no measurable residue is an error (:class:`StatisticsError`), never a
  silent NaN.
* **Replication-level intervals** treat each independent replication's
  post-warm-up metric as one i.i.d. sample; with ``n`` replications the
  half-width uses the t distribution with ``n - 1`` degrees of freedom.
  A single replication yields a degenerate interval (half-width 0.0) —
  that is honest for the registry's single-replication compatibility
  mode and keeps the envelope schema uniform.
* **Batch means** serve within-run analysis of a single long run:
  contiguous batches of a time series stand in for replications.  Fewer
  than two batches cannot produce a variance estimate and raise.
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


# -- warm-up truncation ------------------------------------------------


def warmup_window(
    horizon_seconds: Seconds, warmup_fraction: Ratio
) -> tuple[Seconds, Seconds]:
    """The measurement window ``[start, end)`` after warm-up truncation.

    Raises :class:`StatisticsError` when the warm-up swallows the whole
    horizon — there would be nothing left to measure, and reporting a
    0/0 ratio as 0.0 would silently fabricate a result.
    """
    if horizon_seconds <= 0.0:
        raise StatisticsError(
            f"horizon must be positive, got {horizon_seconds!r}"
        )
    if not 0.0 <= warmup_fraction < 1.0:
        raise StatisticsError(
            f"warm-up fraction must lie in [0, 1): a warm-up of "
            f"{warmup_fraction!r} leaves no measurement window"
        )
    return warmup_fraction * horizon_seconds, horizon_seconds


# -- confidence intervals ----------------------------------------------


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
    if n == 1:
        return MetricStats(
            mean=mean, half_width=0.0, n=1, std=0.0, confidence=confidence
        )
    variance = math.fsum((x - mean) ** 2 for x in samples) / (n - 1)
    std = math.sqrt(variance)
    half_width = t_critical(n - 1, confidence) * std / math.sqrt(n)
    return MetricStats(
        mean=mean, half_width=half_width, n=n, std=std,
        confidence=confidence,
    )


def batch_means_ci(
    samples: t.Sequence[float],
    batches: int = 10,
    confidence: float = 0.95,
) -> MetricStats:
    """Batch-means interval over one run's (ordered) sample sequence.

    The sequence splits into ``batches`` contiguous, equally-sized
    batches (a remainder shorter than a batch is dropped from the
    front, keeping the steady-state tail); the batch means then feed
    :func:`replication_ci`.  Fewer than two non-empty batches cannot
    estimate a variance and raise.
    """
    if batches < 2:
        raise StatisticsError(
            f"batch means need at least 2 batches, got {batches!r}"
        )
    if len(samples) < batches:
        raise StatisticsError(
            f"batch means over {len(samples)} samples cannot fill "
            f"{batches} batches"
        )
    size = len(samples) // batches
    tail = samples[len(samples) - size * batches:]
    means = [
        math.fsum(tail[index * size:(index + 1) * size]) / size
        for index in range(batches)
    ]
    return replication_ci(means, confidence)
