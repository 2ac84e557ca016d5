"""LRFU: the recency/frequency spectrum as one decayed score.

Lee et al.'s LRFU assigns every key a *combined recency and frequency*
value ``C(t) = sum_i 2^(-lambda * (t - t_i))`` over its access instants
``t_i``: each touch contributes 1 and decays exponentially with
half-life ``1/lambda`` seconds.  ``lambda -> 0`` degenerates to LFU
(all history counts equally), large ``lambda`` to LRU (only the last
touch matters) — one knob sweeps the whole spectrum.

Because every key's value decays by the *same* factor between events,
relative order only changes at access instants, so the policy stores
the normalized log-score

    W(key) = log2(C(t_last)) + lambda_log2 * t_last

which is time-invariant between touches — exactly the LRD trick that
keeps the score finite over arbitrarily long horizons (raw ``C`` would
need ``2^(lambda * t)`` style terms that overflow floats within hours
of simulated time).  Victims are the minimum ``W`` on the lazily
pruned heap of :class:`~repro.core.replacement.base.ScoredPolicy`.
"""

from __future__ import annotations

import math

from repro.core.granularity import CacheKey
from repro.core.replacement.base import ScoredPolicy, register_policy

#: Default decay: half-life of 1000 simulated seconds, matching LRD's
#: default halving interval so the two decayed-score schemes are
#: directly comparable.
DEFAULT_LAMBDA = 1e-3

#: Exponent magnitude beyond which 2^x is treated as 0 or dominant.
_EXP_CLAMP = 60.0


class LRFUPolicy(ScoredPolicy):
    """Decayed combined recency-frequency scoring (CRF) eviction."""

    name = "lrfu"

    def __init__(self, decay: float = DEFAULT_LAMBDA) -> None:
        decay = float(decay)
        if not math.isfinite(decay) or decay <= 0.0:
            raise ValueError(
                f"decay rate lambda must be positive, got {decay!r}"
            )
        super().__init__()
        self.decay = decay
        if decay != DEFAULT_LAMBDA:
            self.name = f"lrfu-{decay:g}"
        # A record is [stamp, key, W].

    # ------------------------------------------------------------------
    def crf_log2(self, key: CacheKey, now: float) -> float:
        """log2 of the key's decayed CRF value at ``now``."""
        return self._records[key][2] - self.decay * now

    def on_admit(self, key: CacheKey, now: float) -> None:
        self._require_absent(key)
        # C = 1 at the first touch: W = log2(1) + lambda * now.
        record = self._records[key] = [None, key, self.decay * now]
        self._push(record, record[2])

    def on_access(self, key: CacheKey, now: float) -> None:
        self._require_resident(key)
        record = self._records[key]
        # x = log2 of the old CRF decayed to `now`; C_new = 1 + 2^x.
        x = record[2] - self.decay * now
        if x < -_EXP_CLAMP:
            log_c = 0.0  # old contribution fully decayed away
        elif x > _EXP_CLAMP:
            log_c = x  # the +1 is below float resolution
        else:
            log_c = math.log2(1.0 + 2.0**x)
        record[2] = log_c + self.decay * now
        self._push(record, record[2])

    def evict(self, now: float) -> CacheKey:
        score, __, record = self._pop_min()
        # Report the victim's log2-CRF at eviction time: comparable
        # across evictions, unlike the raw normalized W.
        self.last_eviction_score = score - self.decay * now
        return record[1]


register_policy("lrfu")(LRFUPolicy)
