"""Replacement-policy interface, registry and shared machinery.

A policy tracks the *resident set* of cache keys and picks eviction
victims.  The storage cache drives it through four notifications::

    on_admit(key, now)    a new key entered the cache
    on_access(key, now)   a resident key was read or written
    remove(key)           a key left the cache for external reasons
    evict(now) -> key     choose a victim AND remove it from the policy

``evict`` both selects and forgets the victim so policies can use lazy
heaps internally without dangling bookkeeping.  The scored policies
(LRU-k, LRD, LRFU, Mean, Window, EWMA) share one such heap,
:class:`ScoredPolicy`.

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
import itertools
import math
import typing as t
from heapq import heapify, heappop, heappush

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

        A store that lets records go stale in place (the heaps and the
        young FIFO of a :class:`ScoredPolicy`) promises to hold at most
        ``2 * live + COMPACTION_SLACK`` records; the live-state checks
        read this declaration to hold it to that.  Policies without such
        a store declare none (the default).
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


#: Dead entries a lazily pruned store may hold beyond one per live
#: record before it is rebuilt; keeps rebuilds of tiny stores rare.
COMPACTION_SLACK = 16

#: A store entry: (score, the record's stamp when pushed, the record).
#: A record is a list whose first two items are its stamp (``None``
#: once its key has left) and its key.
Entry = tuple[t.Any, int, list[t.Any]]


def live_entries(store: t.Iterable[Entry]) -> list[Entry]:
    """The entries of ``store`` whose stamp is still their record's."""
    return [entry for entry in store if entry[2][0] == entry[1]]


def rebuilt(heap: list[Entry]) -> list[Entry]:
    """A heap of the live entries of ``heap`` alone.

    A store is rebuilt once it holds more than ``2 * live +
    COMPACTION_SLACK`` entries, ``live`` being the records it ranks.  A
    rebuild then drops at least as many dead entries as it keeps live
    ones, so its cost is amortised O(1) per push.  It cannot change a
    result: stamps are unique, so ``(score, stamp)`` orders a heap's
    entries totally (scores are never NaN) and the top live entry is
    the same whatever shape the heap has.
    """
    live = live_entries(heap)
    heapify(live)
    return live


def settled(heap: list[Entry]) -> list[Entry]:
    """Pop dead entries off the top of ``heap``; return it."""
    while heap and heap[0][2][0] != heap[0][1]:
        heappop(heap)
    return heap


class ScoredPolicy(ReplacementPolicy):
    """Evict the resident key with the smallest score.

    **One record per key; entries live by stamp.**  Each resident key
    has one record ``[stamp, key, ...]`` in ``_records``; the policy's
    fields follow the first two items.  The heap holds ``(score, stamp,
    record)`` entries, and an entry is live while its stamp is the
    record's: re-scoring a key gives its record a fresh stamp and a
    leaving key none, which kills every older entry of the key where it
    lies.  Dead entries are popped when they reach the top, and the
    heap is rebuilt (:func:`rebuilt`) once it holds more than two
    entries per live one plus ``COMPACTION_SLACK``, so it grows with the
    resident set, not with the number of accesses.  Stamps come from one
    counter, so equal scores leave in push order.
    """

    def __init__(self) -> None:
        self._records: dict[CacheKey, list[t.Any]] = {}
        self._stamps = itertools.count(1)
        self._heap: list[Entry] = []

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def lazy_stores(self) -> dict[str, tuple[int, int]]:
        return {"heap": (len(self._heap), len(self._records))}

    def _push(self, record: list[t.Any], score: t.Any) -> None:
        """(Re-)score a resident key's record."""
        stamp = next(self._stamps)
        record[0] = stamp
        heappush(self._heap, (score, stamp, record))
        self._bound_heap()

    def _bound_heap(self) -> None:
        """Rebuild the heap once it holds more than twice the records it
        ranks plus the slack; checked whenever it grows or they shrink."""
        if len(self._heap) > 2 * len(self._records) + COMPACTION_SLACK:
            self._heap = rebuilt(self._heap)

    def _forget(self, record: list[t.Any]) -> None:
        """Drop a leaving key's record; its entries die with the stamp."""
        del self._records[record[1]]
        record[0] = None
        self._bound_heap()

    def remove(self, key: CacheKey) -> None:
        record = self._records.get(key)
        if record is None:
            self._require_resident(key)  # raises
        self._forget(record)

    def _pop_min(self) -> Entry:
        """Forget the key with the smallest score; return its entry."""
        if not self._records:
            self._require_nonempty()  # raises
        entry = heappop(settled(self._heap))
        self._forget(entry[2])
        return entry

    def evict(self, now: float) -> CacheKey:
        return self._pop_min()[2][1]


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
