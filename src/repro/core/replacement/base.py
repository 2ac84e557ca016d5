"""Replacement-policy interface, registry and shared machinery.

A policy tracks the *resident set* of cache keys and picks eviction
victims.  The storage cache drives it through four notifications::

    on_admit(key, now)    a new key entered the cache
    on_access(key, now)   a resident key was read or written
    remove(key)           a key left the cache for external reasons
    evict(now) -> key     choose a victim AND remove it from the policy

``evict`` both selects and forgets the victim so policies can use lazy
heaps internally without dangling bookkeeping.

Admission-aware policies additionally implement ``should_admit(key,
now)``: the cache consults it *only* for inserts that would force at
least one eviction (inserts into free space are always admitted — an
admission filter exists to protect resident state under replacement
pressure, not to keep a half-empty cache empty).  The default accepts
everything, so the paper's six policies are provably untouched by the
framework.  Segmented policies (W-TinyLFU's window/probation/protected)
expose their internal placement through ``segment_of(key)``.

Policies are registered by name and instantiated from compact spec
strings — ``"lru"``, ``"lru-3"``, ``"ewma-0.5"``, ``"window-10"``,
``"tinylfu-adaptive"`` — which is also how experiment configs and the
CLI refer to them.
"""

from __future__ import annotations

import abc
import heapq
import math
import typing as t

from repro.core.granularity import CacheKey
from repro.errors import ReplacementError


class ReplacementPolicy(abc.ABC):
    """Abstract eviction policy over a set of cache keys."""

    #: Registry name, e.g. ``"lru"``; set by subclasses.
    name: str = "abstract"

    #: Numeric rank of the most recent eviction victim, for policies
    #: that score candidates (the duration schemes, EWMA); ``None`` for
    #: recency/frequency policies without a meaningful number.  Read by
    #: the cache's :class:`~repro.obs.events.CacheEvict` emission.
    last_eviction_score: float | None = None

    @abc.abstractmethod
    def on_admit(self, key: CacheKey, now: float) -> None:
        """A new key was inserted (it must not already be resident)."""

    @abc.abstractmethod
    def on_access(self, key: CacheKey, now: float) -> None:
        """A resident key was accessed."""

    @abc.abstractmethod
    def remove(self, key: CacheKey) -> None:
        """Forget a resident key (invalidation or external eviction)."""

    @abc.abstractmethod
    def evict(self, now: float) -> CacheKey:
        """Pick a victim, remove it from the policy, and return it."""

    @abc.abstractmethod
    def __contains__(self, key: CacheKey) -> bool: ...

    @abc.abstractmethod
    def __len__(self) -> int: ...

    def should_admit(self, key: CacheKey, now: float) -> bool:
        """Whether a *new* key may displace resident state.

        Consulted by the storage cache only when inserting ``key`` would
        force at least one eviction; a ``False`` return denies the
        insert (the cache emits :class:`~repro.obs.events.CacheReject`)
        and the resident set stays untouched.  Policies that maintain a
        frequency sketch should record the attempt here so repeatedly
        requested keys eventually pass the filter.  The default admits
        everything — the six paper policies are byte-identical to their
        pre-framework behaviour.
        """
        return True

    def segment_of(self, key: CacheKey) -> str | None:
        """Name of the internal segment holding ``key``.

        ``None`` for unsegmented policies (the default) and for
        non-resident keys; segmented policies (W-TinyLFU) return
        ``"window"``, ``"probation"`` or ``"protected"``.
        """
        return None

    def describe(self) -> str:
        """Human-readable label used in reports."""
        return self.name

    def lazy_stores(self) -> dict[str, tuple[int, int]]:
        """``(records held, live records)`` of each lazily pruned store.

        A store that lets records go stale in place (a
        :class:`LazyScoreHeap`, EWMA's stamped heaps) promises to hold
        at most ``2 * live + COMPACTION_SLACK`` records; the live-state
        checks read this declaration to hold it to that.  Policies
        without such a store declare none (the default).
        """
        return {}

    def _require_absent(self, key: CacheKey) -> None:
        if key in self:
            raise ReplacementError(f"{key!r} is already resident")

    def _require_resident(self, key: CacheKey) -> None:
        if key not in self:
            raise ReplacementError(f"{key!r} is not resident")

    def _require_nonempty(self) -> None:
        if len(self) == 0:
            raise ReplacementError("cannot evict from an empty policy")


#: Stale records a :class:`LazyScoreHeap` may hold beyond one per live
#: key before it rebuilds; keeps rebuilds of tiny heaps rare.
COMPACTION_SLACK = 16


class LazyScoreHeap:
    """Min-heap over (score, key) with lazy invalidation.

    Scores may be re-pushed on every access; outdated heap records are
    skipped at pop time by comparing against the current score table.
    Gives O(log n) victim selection even for policies whose scores change
    on every access (LRU-k, LRD, and the duration schemes).

    A stale record surfaces only when it reaches the top, and one below
    a key that stays on top (EWMA's largest mean) never does.  So the
    heap is rebuilt from the live records whenever it holds more than
    ``2 * len(self) + COMPACTION_SLACK`` records: its size follows the
    resident set, not the number of accesses so far.  A rebuild drops at
    least as many stale records as it keeps live ones, so its cost is
    amortised O(1) per push.  It cannot change a result: ``seq`` is
    unique, so records are totally ordered by ``(score, seq)`` (scores
    are never NaN) and the top live record is the same whatever shape
    the heap has.
    """

    __slots__ = ("_heap", "_scores", "_seq")

    def __init__(self) -> None:
        #: Heap records are (score, seq, key); seq both breaks score ties
        #: deterministically and keeps keys out of comparisons entirely.
        self._heap: list[tuple[t.Any, int, CacheKey]] = []
        #: key -> its live heap record (the same tuple object), so a
        #: record is live exactly when the table holds it.
        self._scores: dict[CacheKey, tuple[t.Any, int, CacheKey]] = {}
        self._seq = 0

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._scores

    def __len__(self) -> int:
        return len(self._scores)

    def set_score(self, key: CacheKey, score: t.Any) -> None:
        """Insert or update ``key``'s score."""
        self._seq += 1
        record = (score, self._seq, key)
        scores = self._scores
        scores[key] = record
        heap = self._heap
        heapq.heappush(heap, record)
        if len(heap) > 2 * len(scores) + COMPACTION_SLACK:
            self._compact()

    def sizes(self) -> tuple[int, int]:
        """``(heap records, live keys)``, for a policy's
        :meth:`ReplacementPolicy.lazy_stores`."""
        return len(self._heap), len(self._scores)

    def score_of(self, key: CacheKey) -> t.Any:
        return self._scores[key][0]

    def discard(self, key: CacheKey) -> None:
        """Remove ``key``; its stale heap records evaporate lazily."""
        scores = self._scores
        if (
            scores.pop(key, None) is not None
            and len(self._heap) > 2 * len(scores) + COMPACTION_SLACK
        ):
            self._compact()

    def top(self) -> tuple[t.Any, CacheKey] | None:
        """Current (score, key) minimum, or ``None`` when empty.

        One settle answers both questions a caller would otherwise ask
        with ``len`` and then :meth:`peek_min`: every live key has a
        live heap record, so the heap is empty after settling exactly
        when no key is left.
        """
        self._settle()
        heap = self._heap
        if not heap:
            return None
        score, __, key = heap[0]
        return score, key

    def peek_min(self) -> tuple[t.Any, CacheKey]:
        """Current (score, key) minimum without removing it."""
        self._settle()
        if not self._heap:
            raise ReplacementError("heap is empty")
        score, __, key = self._heap[0]
        return score, key

    def pop_min(self) -> CacheKey:
        """Remove and return the key with the minimal current score."""
        self._settle()
        heap = self._heap
        if not heap:
            raise ReplacementError("heap is empty")
        __, __, key = heapq.heappop(heap)
        scores = self._scores
        del scores[key]
        if len(heap) > 2 * len(scores) + COMPACTION_SLACK:
            self._compact()
        return key

    def _settle(self) -> None:
        """Drop stale heap records until the top one is live."""
        heap = self._heap
        scores = self._scores
        while heap:
            record = heap[0]
            if scores.get(record[2]) is record:
                return
            heapq.heappop(heap)

    def _compact(self) -> None:
        """Rebuild the heap from its live records alone."""
        scores = self._scores
        heap = [
            record for record in self._heap if scores.get(record[2]) is record
        ]
        heapq.heapify(heap)
        self._heap = heap


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
PolicyFactory = t.Callable[..., ReplacementPolicy]
#: name -> (factory, raw_parameter): raw factories receive the spec's
#: parameter text verbatim (e.g. ``tinylfu-adaptive``) and validate it
#: themselves; numeric factories get a parsed, finite number.
_REGISTRY: dict[str, tuple[PolicyFactory, bool]] = {}


def register_policy(
    name: str, *, raw_parameter: bool = False
) -> t.Callable[[PolicyFactory], PolicyFactory]:
    """Class decorator adding a policy to the spec-string registry."""

    def decorator(factory: PolicyFactory) -> PolicyFactory:
        lowered = name.lower()
        if lowered in _REGISTRY:
            raise ReplacementError(f"policy {name!r} registered twice")
        _REGISTRY[lowered] = (factory, raw_parameter)
        return factory

    return decorator


def available_policies() -> list[str]:
    """Names of all registered policies."""
    return sorted(_REGISTRY)


def create_policy(spec: str) -> ReplacementPolicy:
    """Instantiate a policy from a spec string.

    The spec is ``name`` or ``name-parameter``: ``"lru"``, ``"lru-3"``,
    ``"lrd"``, ``"mean"``, ``"window-10"``, ``"ewma-0.5"``, ``"clock"``,
    ``"fifo"``, ``"random"``, ``"tinylfu-10"``, ``"tinylfu-adaptive"``,
    ``"cmslru"``, ``"lrfu-0.001"``.
    """
    spec = spec.strip().lower()
    if not spec:
        raise ReplacementError("empty policy spec")
    name, sep, parameter = spec.partition("-")
    entry = _REGISTRY.get(name)
    if entry is None:
        raise ReplacementError(
            f"unknown policy {name!r}; available: {available_policies()}"
        )
    factory, raw_parameter = entry
    if not sep:
        return factory()
    if not parameter:
        raise ReplacementError(
            f"malformed policy spec {spec!r}: dangling '-' with no "
            f"parameter (use {name!r} for the default)"
        )
    try:
        if raw_parameter:
            return factory(parameter)
        return factory(_parse_number(parameter))
    except (TypeError, ValueError) as exc:
        raise ReplacementError(
            f"bad parameter {parameter!r} for policy {name!r}: {exc}"
        ) from None


def _parse_number(text: str) -> float | int:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"parameter must be finite, got {text!r}")
    return int(value) if value.is_integer() else value
