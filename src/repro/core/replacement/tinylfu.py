"""W-TinyLFU: windowed admission-filtered segmented LRU.

The 2010s design the tournament pits against the paper's 1998 schemes.
Resident keys live in one of three segments:

* **window** — a small LRU absorbing every new admission.  One-shot
  items (sequential scans) die here without ever touching the main
  region;
* **probation** — the main region's entry segment, LRU-ordered.  Keys
  arrive here two ways: window overflow drains into probation while the
  cache still has room (admission is free when nothing must die for
  it), and at eviction time a window victim is transferred here when
  the frequency sketch says it is more popular than probation's own
  next victim — otherwise the window victim is evicted outright
  (TinyLFU admission filtering);
* **protected** — keys re-accessed while on probation.  Overflow
  demotes the protected LRU head back to probation, so the segment
  holds the most recently *re-used* keys (SLRU).

Segment targets are entry counts derived from the current resident set
(the storage cache budgets bytes, not slots, so count-based targets are
the natural approximation).  The adaptive variant shifts the window
fraction with a hit-rate EWMA: a collapsing hit rate signals a scan, so
the window shrinks to starve it; recovery lets the window drift back
toward the default (the SNIPPETS exemplar idiom).
"""

from __future__ import annotations

import math
from collections import OrderedDict

from repro.core.granularity import CacheKey
from repro.core.replacement.base import ReplacementPolicy, register_policy
from repro.core.replacement.sketch import CountMinSketch
from repro.errors import ReplacementError

#: Segment labels reported by :meth:`WTinyLFUPolicy.segment_of`.
SEG_WINDOW = "window"
SEG_PROBATION = "probation"
SEG_PROTECTED = "protected"

#: Default share of the resident set held by the admission window.
DEFAULT_WINDOW_FRACTION = 0.10
#: Share of the main region (probation + protected) kept protected.
PROTECTED_FRACTION = 0.80

#: Adaptive-window bounds and control parameters.
ADAPTIVE_MIN_FRACTION = 0.02
ADAPTIVE_MAX_FRACTION = 0.25
ADAPTIVE_EWMA_ALPHA = 0.02
#: Hit-rate EWMA below this means "scan": shrink the window.
SCAN_HIT_RATE = 0.15
#: Hit-rate EWMA above this means locality is back: regrow the window.
RECOVER_HIT_RATE = 0.35
#: Events between window-fraction adjustments.
ADAPT_EVERY = 64


class WTinyLFUPolicy(ReplacementPolicy):
    """Window-LRU + SLRU main region behind a count-min admission filter."""

    name = "tinylfu"

    def __init__(
        self,
        window_fraction: float = DEFAULT_WINDOW_FRACTION,
        adaptive: bool = False,
        sketch: "CountMinSketch | None" = None,
    ) -> None:
        if not 0.0 < window_fraction < 1.0:
            raise ValueError(
                f"window fraction must lie in (0, 1), got "
                f"{window_fraction!r}"
            )
        self.window_fraction = float(window_fraction)
        self.default_window_fraction = float(window_fraction)
        self.adaptive = bool(adaptive)
        self._sketch = sketch if sketch is not None else CountMinSketch()
        self._window: OrderedDict[CacheKey, None] = OrderedDict()
        self._probation: OrderedDict[CacheKey, None] = OrderedDict()
        self._protected: OrderedDict[CacheKey, None] = OrderedDict()
        self._segments: dict[CacheKey, str] = {}
        #: Hit-rate EWMA over the admit(0)/access(1) event stream.
        self._hit_ewma = 0.5
        self._events_since_adapt = 0

    # ------------------------------------------------------------------
    def __contains__(self, key: CacheKey) -> bool:
        return key in self._segments

    def __len__(self) -> int:
        return len(self._segments)

    def segment_of(self, key: CacheKey) -> str | None:
        return self._segments.get(key)

    def frequency(self, key: CacheKey) -> int:
        """Sketch estimate for ``key`` (diagnostics and tests)."""
        return self._sketch.estimate(key)

    # ------------------------------------------------------------------
    # The hot paths probe ``_segments`` once and compare segment labels
    # by identity: the table only ever holds the three module constants.
    def on_admit(self, key: CacheKey, now: float) -> None:
        segments = self._segments
        if key in segments:
            raise ReplacementError(f"{key!r} is already resident")
        self._sketch.increment(key)
        self._window[key] = None
        segments[key] = SEG_WINDOW
        if self.adaptive:
            self._observe(hit=False)
        self._spill_window()

    def on_access(self, key: CacheKey, now: float) -> None:
        segment = self._segments.get(key)
        if segment is None:
            raise ReplacementError(f"{key!r} is not resident")
        self._sketch.increment(key)
        if segment is SEG_WINDOW:
            self._window.move_to_end(key)
        elif segment is SEG_PROTECTED:
            self._protected.move_to_end(key)
        else:
            # Probation re-hit: promote, demoting on protected overflow.
            probation, protected = self._probation, self._protected
            del probation[key]
            protected[key] = None
            self._segments[key] = SEG_PROTECTED
            protected_target = max(
                1, int(PROTECTED_FRACTION * (len(probation) + len(protected)))
            )
            while len(protected) > protected_target:
                demoted, __ = protected.popitem(last=False)
                probation[demoted] = None
                self._segments[demoted] = SEG_PROBATION
        if self.adaptive:
            self._observe(hit=True)

    def remove(self, key: CacheKey) -> None:
        segment = self._segments.pop(key, None)
        if segment is None:
            raise ReplacementError(f"{key!r} is not resident")
        if segment is SEG_WINDOW:
            del self._window[key]
        elif segment is SEG_PROBATION:
            del self._probation[key]
        else:
            del self._protected[key]

    def evict(self, now: float) -> CacheKey:
        """Settle the window/probation duel and remove the victim.

        Without a window, probation's LRU head leaves (protected's when
        probation is empty too).  With nothing on probation to compare
        against, the window victim leaves: protected keys are never
        displaced by a first-touch candidate.  Otherwise the sketch
        decides between the window's oldest key and probation's LRU
        head, and the victim's score is the estimate the duel read.
        """
        window, probation = self._window, self._probation
        estimate = self._sketch.estimate
        if window and probation:
            candidate = next(iter(window))
            incumbent = next(iter(probation))
            candidate_score = estimate(candidate)
            incumbent_score = estimate(incumbent)
            del window[candidate]
            if candidate_score > incumbent_score:
                # The candidate is provably hotter: transfer it into the
                # main region and evict probation's own victim instead.
                del probation[incumbent]
                probation[candidate] = None
                self._segments[candidate] = SEG_PROBATION
                victim, score = incumbent, incumbent_score
            else:
                victim, score = candidate, candidate_score
        else:
            segment = window or probation or self._protected
            if not segment:
                raise ReplacementError("cannot evict from an empty policy")
            victim, __ = segment.popitem(last=False)
            score = estimate(victim)
        del self._segments[victim]
        self.last_eviction_score = float(score)
        return victim

    # ------------------------------------------------------------------
    def _spill_window(self) -> None:
        # Window overflow drains into probation.  Spilled keys stay
        # resident — no bytes are freed — they merely lose their
        # recency shelter and must now survive the frequency duel.
        window = self._window
        target = max(
            1, math.ceil(self.window_fraction * len(self._segments))
        )
        while len(window) > target:
            spilled, __ = window.popitem(last=False)
            self._probation[spilled] = None
            self._segments[spilled] = SEG_PROBATION

    # ------------------------------------------------------------------
    def _observe(self, hit: bool) -> None:
        # Called only by the adaptive variant.
        alpha = ADAPTIVE_EWMA_ALPHA
        self._hit_ewma += alpha * ((1.0 if hit else 0.0) - self._hit_ewma)
        self._events_since_adapt += 1
        if self._events_since_adapt < ADAPT_EVERY:
            return
        self._events_since_adapt = 0
        if self._hit_ewma < SCAN_HIT_RATE:
            # Scan regime: starve the window so one-shot items cannot
            # displace the frequency-vetted main region.  Spill right
            # away so the shrink takes effect this instant, not on the
            # next admission.
            self.window_fraction = max(
                ADAPTIVE_MIN_FRACTION, self.window_fraction * 0.5
            )
            self._spill_window()
        elif self._hit_ewma > RECOVER_HIT_RATE:
            # Locality is back: drift toward (and slightly past) the
            # default so recency-heavy phases get window capacity.
            self.window_fraction = min(
                ADAPTIVE_MAX_FRACTION,
                max(
                    self.default_window_fraction,
                    self.window_fraction * 1.5,
                ),
            )

    def describe(self) -> str:
        return self.name


def make_tinylfu(parameter: str = "") -> WTinyLFUPolicy:
    """Factory behind the ``"tinylfu"`` spec.

    ``tinylfu`` — fixed 10% window; ``tinylfu-25`` — fixed 25% window;
    ``tinylfu-adaptive`` — scan-aware adaptive window sizing.
    """
    text = parameter.strip()
    if not text:
        policy = WTinyLFUPolicy()
        policy.name = "tinylfu"
        return policy
    if text == "adaptive":
        policy = WTinyLFUPolicy(adaptive=True)
        policy.name = "tinylfu-adaptive"
        return policy
    try:
        percent = float(text)
    except ValueError:
        raise ValueError(
            f"expected a window percentage or 'adaptive', got {text!r}"
        ) from None
    if not math.isfinite(percent) or not 0.0 < percent < 100.0:
        raise ValueError(
            f"window percentage must lie in (0, 100), got {text!r}"
        )
    policy = WTinyLFUPolicy(window_fraction=percent / 100.0)
    policy.name = f"tinylfu-{percent:g}"
    return policy


register_policy("tinylfu", raw_parameter=True)(make_tinylfu)
