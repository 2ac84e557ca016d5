"""Seeded, composable fault injection for the wireless channels.

The paper's premise is a 19.2 Kbps wireless link that is slow *and*
unreliable, yet the reproduction originally modelled only one failure
shape — Experiment #6's contiguous disconnection window.  This module
adds the missing failure modes as a strict opt-in layer:

* **per-message drops** — a message occupies its full airtime but the
  receiver's CRC check fails (the paper's 11-byte header carries a CRC
  precisely for this), so the message is lost;
* **burst loss** — a Gilbert–Elliott two-state Markov chain: the channel
  flips between a *good* state (loss ``loss_rate``) and a *bad* state
  (loss ``burst_loss_rate``), producing the correlated loss runs real
  wireless links show;
* **mid-transmission aborts** — a transmission cut by the disconnection
  schedule (see ``WirelessChannel.transmit``'s ``deadline``), reported
  through the same injector;
* **deterministic fault traces** — every fault is emitted on the event
  bus as a :class:`~repro.obs.events.FaultEvent` with its simulated
  time, channel and message size, so a run's fault history is
  inspectable and reproducible through any bus subscriber (the JSONL
  trace sink, the invariant checkers).

Determinism: each injector consumes its own :class:`RandomStream`
(forked per channel from a dedicated ``faults`` stream), so enabling or
re-tuning faults never perturbs the draws of arrivals, heat or queries —
and fault decisions themselves are bit-identical across serial and
parallel sweep execution.

The client-side counterpart, :class:`RecoveryPolicy`, describes the
recovery machinery the paper's design implies but never had to
exercise: request timeouts, bounded retries with exponential backoff
plus seeded jitter, and graceful degradation to cache-only answers
(Experiment #6's local-serve path) when the budget is exhausted.
"""

from __future__ import annotations

import dataclasses

from repro.errors import NetworkError
from repro.obs.bus import EventBus
from repro.obs.events import (
    KIND_ABORT,
    KIND_BURST_ENTER,
    KIND_BURST_EXIT,
    KIND_DROP,
    FaultEvent,
)
from repro.sim.rand import RandomStream

#: Gilbert–Elliott channel states.
GOOD = "good"
BAD = "bad"

#: Re-exported for existing importers; the event type and its kind
#: constants now live in :mod:`repro.obs.events` so the fault trace is
#: just another bus event stream.
__all__ = [
    "BAD",
    "FaultConfig",
    "FaultEvent",
    "FaultInjector",
    "GOOD",
    "KIND_ABORT",
    "KIND_BURST_ENTER",
    "KIND_BURST_EXIT",
    "KIND_DROP",
    "RecoveryPolicy",
]


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise NetworkError(f"{name} must lie in [0, 1], got {value!r}")


@dataclasses.dataclass(frozen=True)
class FaultConfig:
    """The channel-fault knobs (all zero = faults off).

    ``loss_rate`` is the per-message drop probability in the good state;
    the three ``burst_*`` knobs parameterise the Gilbert–Elliott chain:
    per message the channel enters the bad state with probability
    ``burst_on_probability``, leaves it with ``burst_off_probability``,
    and drops with ``burst_loss_rate`` while inside it.
    """

    loss_rate: float = 0.0
    burst_loss_rate: float = 0.0
    burst_on_probability: float = 0.0
    burst_off_probability: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("loss_rate", self.loss_rate)
        _check_probability("burst_loss_rate", self.burst_loss_rate)
        _check_probability(
            "burst_on_probability", self.burst_on_probability
        )
        _check_probability(
            "burst_off_probability", self.burst_off_probability
        )
        if self.burst_on_probability > 0 and self.burst_off_probability == 0:
            raise NetworkError(
                "burst_off_probability must be positive when the burst "
                "state is reachable, or the channel never recovers"
            )

    @property
    def enabled(self) -> bool:
        """Whether any fault mode can actually fire."""
        return self.loss_rate > 0 or self.burst_on_probability > 0

    @property
    def uses_burst_model(self) -> bool:
        return self.burst_on_probability > 0


class FaultInjector:
    """Per-channel fault source: burst chain, drop decisions, events.

    One injector per channel, each with its own forked stream, so the
    draw sequence on one channel never depends on traffic interleaving
    with another.  Per message the injector makes a fixed number of
    draws (one chain transition when the burst model is on, then one
    loss draw), keeping decisions reproducible for a given seed.
    """

    def __init__(
        self,
        config: FaultConfig,
        rng: RandomStream,
        channel: str = "channel",
        bus: EventBus | None = None,
    ) -> None:
        self.config = config
        self.rng = rng
        self.channel = channel
        #: Every fault event is published here; the channel's own
        #: statistics count the drops and aborts.
        self.bus = bus if bus is not None else EventBus()
        self.state = GOOD

    def __repr__(self) -> str:
        return f"<FaultInjector {self.channel!r} state={self.state}>"

    def _record(self, kind: str, now: float, size_bytes: float) -> None:
        event = FaultEvent(
            time=now,
            channel=self.channel,
            kind=kind,
            size_bytes=size_bytes,
        )
        self.bus.emit(event)

    def _advance_chain(self, now: float) -> None:
        if self.state == GOOD:
            if self.rng.random() < self.config.burst_on_probability:
                self.state = BAD
                self._record(KIND_BURST_ENTER, now, 0.0)
        else:
            if self.rng.random() < self.config.burst_off_probability:
                self.state = GOOD
                self._record(KIND_BURST_EXIT, now, 0.0)

    def should_drop(self, now: float, size_bytes: float) -> bool:
        """Decide one message's fate (called at transmission completion)."""
        if self.config.uses_burst_model:
            self._advance_chain(now)
        rate = (
            self.config.burst_loss_rate
            if self.state == BAD
            else self.config.loss_rate
        )
        dropped = self.rng.random() < rate
        if dropped:
            self._record(KIND_DROP, now, size_bytes)
        return dropped

    def note_abort(self, now: float, size_bytes: float) -> None:
        """Record a mid-transmission abort (cut at its deadline)."""
        self._record(KIND_ABORT, now, size_bytes)


@dataclasses.dataclass(frozen=True)
class RecoveryPolicy:
    """Client-side recovery: timeout, bounded retries, backoff, jitter.

    ``timeout_seconds`` bounds the wait for a reply; on expiry the
    client retries (up to ``retry_budget`` times) after an exponential
    backoff ``base * multiplier**attempt`` stretched by a seeded jitter
    factor in ``[1, 1 + backoff_jitter]``.  When the budget is exhausted
    the query degrades to cache-only answers.
    """

    timeout_seconds: float
    retry_budget: int = 0
    backoff_base_seconds: float = 1.0
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.timeout_seconds <= 0:
            raise NetworkError(
                f"timeout must be positive, got {self.timeout_seconds!r}"
            )
        if self.retry_budget < 0:
            raise NetworkError(
                f"retry budget cannot be negative: {self.retry_budget!r}"
            )
        if self.backoff_base_seconds < 0:
            raise NetworkError(
                f"backoff base cannot be negative: "
                f"{self.backoff_base_seconds!r}"
            )
        if self.backoff_multiplier < 1.0:
            raise NetworkError(
                f"backoff multiplier must be >= 1, got "
                f"{self.backoff_multiplier!r}"
            )
        _check_probability("backoff_jitter", self.backoff_jitter)

    @property
    def max_attempts(self) -> int:
        return self.retry_budget + 1

    def backoff_delay(self, attempt: int, rng: RandomStream) -> float:
        """Delay before retry number ``attempt`` (0-based), with jitter."""
        delay = self.backoff_base_seconds * (
            self.backoff_multiplier ** attempt
        )
        if self.backoff_jitter > 0:
            delay *= 1.0 + self.backoff_jitter * rng.random()
        return delay
