"""Query arrival processes (the paper's fifth experimental dimension).

* **Poisson** — homogeneous, mean rate 0.01 queries/s per client.
* **Bursty** — the paper's vehicle-traffic day profile: 80% of a day's
  queries fall in two rush-hour bursts (07:00-10:00 at 0.037/s and
  16:00-19:00 at 0.027/s); the working-day gap (10:00-16:00) runs at
  0.005/s and the remaining hours at 0.0015/s.  These rates integrate to
  exactly the same 864 queries/day as Poisson-0.01.

Bursty arrivals are generated as an exact piecewise-homogeneous Poisson
process: a candidate gap is drawn at the current period's rate and, if
it crosses the period boundary, the draw restarts at the boundary with
the next period's rate (memorylessness makes this exact).
"""

from __future__ import annotations

import abc
import dataclasses
import typing as t

from repro._units import DAY, HOUR, Hours, PerSecond, Seconds
from repro.errors import ConfigurationError
from repro.sim.rand import RandomStream

#: The paper's mean arrival rate per client (queries per second).
DEFAULT_ARRIVAL_RATE: PerSecond = 0.01


class ArrivalProcess(abc.ABC):
    """Generates successive query inter-arrival gaps."""

    @abc.abstractmethod
    def next_interarrival(self, now: Seconds) -> Seconds:
        """Seconds until the next query, given the current time."""

    def describe(self) -> str:
        return type(self).__name__


class PoissonArrival(ArrivalProcess):
    """Homogeneous Poisson arrivals."""

    def __init__(
        self, rng: RandomStream, rate: PerSecond = DEFAULT_ARRIVAL_RATE
    ) -> None:
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate!r}")
        self.rate = float(rate)
        self._rng = rng

    def next_interarrival(self, now: Seconds) -> Seconds:
        return self._rng.exponential(1.0 / self.rate)

    def describe(self) -> str:
        return f"Poisson({self.rate:g}/s)"


@dataclasses.dataclass(frozen=True)
class RatePeriod:
    """One constant-rate stretch of the daily profile: [start, end) hours."""

    start_hour: Hours
    end_hour: Hours
    rate: PerSecond

    def __post_init__(self) -> None:
        if not 0 <= self.start_hour < self.end_hour <= 24:
            raise ConfigurationError(
                f"bad period [{self.start_hour!r}, {self.end_hour!r})"
            )
        if self.rate <= 0:
            raise ConfigurationError(
                f"rate must be positive, got {self.rate!r}"
            )


#: The paper's vehicle-traffic day profile (rates in queries/second).
PAPER_DAY_PROFILE: tuple[RatePeriod, ...] = (
    RatePeriod(0.0, 7.0, 0.0015),
    RatePeriod(7.0, 10.0, 0.037),
    RatePeriod(10.0, 16.0, 0.005),
    RatePeriod(16.0, 19.0, 0.027),
    RatePeriod(19.0, 24.0, 0.0015),
)


class BurstyArrival(ArrivalProcess):
    """Piecewise-constant daily rate profile, repeated every 24 h."""

    def __init__(
        self,
        rng: RandomStream,
        profile: t.Sequence[RatePeriod] = PAPER_DAY_PROFILE,
    ) -> None:
        if not profile:
            raise ConfigurationError("empty rate profile")
        ordered = sorted(profile, key=lambda p: p.start_hour)
        covered = 0.0
        for period in ordered:
            if period.start_hour != covered:
                raise ConfigurationError(
                    f"profile gap/overlap at hour {period.start_hour:g}"
                )
            covered = period.end_hour
        if covered != 24.0:
            raise ConfigurationError("profile must cover the full day")
        self.profile = tuple(ordered)
        self._rng = rng

    def rate_at(self, now: Seconds) -> PerSecond:
        """Arrival rate in effect at absolute time ``now`` (seconds)."""
        hour_of_day = (now % DAY) / HOUR
        for period in self.profile:
            if period.start_hour <= hour_of_day < period.end_hour:
                return period.rate
        # hour 24.0 wraps to 0.0, so this is unreachable; guard anyway.
        return self.profile[-1].rate

    def _boundary_after(self, now: Seconds) -> Seconds:
        """Absolute time of the next period boundary strictly after now."""
        day_start = (now // DAY) * DAY
        hour_of_day = (now - day_start) / HOUR
        for period in self.profile:
            if hour_of_day < period.end_hour:
                return day_start + period.end_hour * HOUR
        return day_start + DAY

    def next_interarrival(self, now: Seconds) -> Seconds:
        cursor = now
        while True:
            rate = self.rate_at(cursor)
            gap = self._rng.exponential(1.0 / rate)
            boundary = self._boundary_after(cursor)
            if cursor + gap <= boundary:
                return (cursor + gap) - now
            cursor = boundary

    def daily_mean_rate(self) -> float:
        """Average rate over one day (should match the Poisson rate)."""
        total = sum(
            (p.end_hour - p.start_hour) * HOUR * p.rate for p in self.profile
        )
        return total / DAY

    def describe(self) -> str:
        return "Bursty"
